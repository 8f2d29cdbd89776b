"""The benchmark's workloads and the scenario each one generates from a seed.

Every workload is closed loop: one operation at a time, in one process. The
seed picks the synthetic series (the network initialisation is fixed); the shape
of the scenario (length, features, where the anomalies sit) is fixed, so the
work done per operation stays nearly the same from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from dbdiag.detector import SELECTED_ARCHITECTURE
from dbdiag.synth import Injection, ScenarioSpec, default_scenario

STORM_DAYS = 10
SPIKE_MINUTES = 8
SPIKE_EVERY = 20


def storm_scenario(seed: int) -> ScenarioSpec:
    """Ten days with three storms of recurring 8-minute spikes.

    Each storm fires a spike every 20 minutes for hours, so the control
    charts flag one long period per storm (about 280 to 320 minutes, the
    same at every seed) and ranking wait events over it costs n*m DTW cells
    per event. The storms are sized so that one diagnosis takes a few
    seconds: a run then times several of them, and DTW still takes most of
    each.
    """

    def storm(feature, start, spikes, magnitude, events, couple=()):
        return tuple(Injection("spike", feature, start + SPIKE_EVERY * k,
                               SPIKE_MINUTES, magnitude, linked_events=events,
                               couple=couple)
                     for k in range(spikes))

    injections = (
        storm("active_session", 2_160, 14, 45.0,
              ("log_file_sync", "db_file_sequential_read"))
        + storm("physical_reads", 6_480, 14, 400.0,
                ("direct_path_read", "db_file_scattered_read"))
        + storm("lock_waiting_session", 10_800, 12, 16.5,
                ("enq_tx_row_lock_contention", "buffer_busy_waits"),
                couple=(("active_session", 0.6),))
    )
    return ScenarioSpec(seed=seed, duration_minutes=STORM_DAYS * 1440,
                        injections=injections)


@dataclass(frozen=True)
class Workload:
    name: str
    operation: str        # what the timed loop repeats: "fit" or "diagnose"
    architecture: str
    epochs: int           # fixed; patience equals it, so every fit runs them all
    scenario: Callable[[int], ScenarioSpec]


WORKLOADS = {w.name: w for w in (
    # The paper's training job; the temporal-norm pair dominates.
    Workload("train_default", "fit", SELECTED_ARCHITECTURE, 8,
             lambda seed: default_scenario(seed=seed)),
    # Hours-long periods: DTW cause ranking dominates the diagnosis.
    Workload("report_storm", "diagnose", SELECTED_ARCHITECTURE, 5, storm_scenario),
)}
