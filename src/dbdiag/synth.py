"""Synthetic DBMS workload scenarios with known anomaly ground truth.

Generates minute-resolution resource metrics (daily cycle + trend + noise)
and wait-event counters, injects labeled anomalies, and evaluates detector
output against the labels. Generation is a pure function of the scenario:
one seeded generator, consumed in a fixed order (stat baselines in feature
order, event baselines in pool order, then injections in order), so the same
spec always yields byte-identical series.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .data import (FIRST_MINUTE, LAST_MINUTE, MetricFrame, check_least, check_names,
                   finite, json_int, json_number, name_list, read_json, write_json)
from .errors import ConfigError

DEFAULT_STAT_FEATURES = (
    "cpu_used",
    "active_session",
    "session_logical_reads",
    "physical_reads",
    "execute_counts",
    "lock_waiting_session",
)

EVENT_POOL = (
    "db_file_sequential_read",
    "db_file_scattered_read",
    "direct_path_read",
    "log_file_sync",
    "log_file_parallel_write",
    "latch_free",
    "buffer_busy_waits",
    "enq_tx_row_lock_contention",
    "library_cache_lock",
    "row_cache_lock",
)

# Epoch minute of 2023-01-01T00:00:00Z.
DEFAULT_START_MINUTE = 27_875_520

MINUTES_PER_DAY = 1440

INJECTION_KINDS = ("spike", "shift", "ramp")

# drift_scenario's level drift over the scenario, in daily amplitudes
DRIFT_FACTOR = 3.0
# the share of a truth interval a detection must overlap to hit it
MIN_OVERLAP_FRACTION = 0.5


@dataclass(frozen=True)
class Baseline:
    """Shape of a healthy metric: level + daily sinusoid + drift + noise."""

    level: float
    daily_amplitude: float
    trend_slope: float
    noise_sigma: float
    phase: float = 0.0

    def series(self, n: int, rng: np.random.Generator) -> np.ndarray:
        t = np.arange(n, dtype=np.float64)
        wave = self.daily_amplitude * np.sin(
            2.0 * math.pi * (t + self.phase) / MINUTES_PER_DAY)
        return (self.level + wave + self.trend_slope * t
                + rng.normal(0.0, self.noise_sigma, n))


DEFAULT_BASELINES = {
    "cpu_used": Baseline(55.0, 18.0, 0.0005, 2.0, phase=0.0),
    "active_session": Baseline(40.0, 12.0, 0.0008, 1.5, phase=137.0),
    "session_logical_reads": Baseline(5000.0, 1500.0, 0.05, 150.0, phase=274.0),
    "physical_reads": Baseline(800.0, 250.0, 0.01, 40.0, phase=411.0),
    "execute_counts": Baseline(1200.0, 350.0, 0.02, 60.0, phase=548.0),
    "lock_waiting_session": Baseline(4.0, 1.5, 0.0002, 0.6, phase=685.0),
}


def _default_baseline(index: int) -> Baseline:
    return Baseline(10.0, 3.0, 0.001, 1.0, phase=137.0 * index)


@dataclass(frozen=True)
class Injection:
    """One labeled anomaly.

    offset/duration are minutes relative to the series start. Shapes:

    * spike: magnitude * exp(-3u) over the duration, u in [0, 1); the first
      minute sits exactly ``magnitude`` above baseline
    * shift: flat +magnitude over the duration
    * ramp:  linear climb from 0 to magnitude (reached at the last minute)

    ``couple`` bleeds a scaled copy of the shape into other features, the way
    a lock pile-up also inflates the active-session count. ``linked_events``
    name wait events that receive a visible bump 1 to 3 minutes later.

    An injection is checked when it is made: a known kind, JSON-integer
    offset and duration (at least 1 minute), a positive finite JSON-number
    magnitude (kept as a float) and coupling fractions in (0, 1]. The rules
    that need the scenario are ``ScenarioSpec``'s.
    """

    kind: str
    feature: str
    offset: int
    duration: int
    magnitude: float
    linked_events: tuple[str, ...] = ()
    couple: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.kind not in INJECTION_KINDS:
            raise ConfigError(f"unknown injection kind {self.kind!r}; "
                              f"expected one of {', '.join(INJECTION_KINDS)}")
        json_int(self.offset, "injection offset", ConfigError)
        if json_int(self.duration, "injection duration", ConfigError) < 1:
            raise ConfigError(f"injection duration must be at least 1 minute, "
                              f"got {self.duration}")
        magnitude = json_number(self.magnitude, "injection magnitude", ConfigError)
        if not (finite(magnitude) and magnitude > 0):
            raise ConfigError(f"injection magnitude must be positive and finite, "
                              f"got {magnitude}")
        object.__setattr__(self, "magnitude", float(magnitude))
        for name, frac in self.couple:
            if not 0.0 < json_number(frac, f"injection couple.{name}", ConfigError) <= 1.0:
                raise ConfigError(f"coupling fraction must be in (0, 1], got {frac}")

    def shape(self) -> np.ndarray:
        u = np.arange(self.duration, dtype=np.float64) / self.duration
        if self.kind == "spike":
            return self.magnitude * np.exp(-3.0 * u)
        if self.kind == "shift":
            return np.full(self.duration, self.magnitude)
        if self.duration == 1:  # a one-minute ramp
            return np.array([self.magnitude])
        return self.magnitude * np.arange(self.duration) / (self.duration - 1)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "feature": self.feature, "offset": self.offset,
                "duration": self.duration, "magnitude": self.magnitude,
                "linked_events": list(self.linked_events),
                "couple": {name: frac for name, frac in self.couple}}

    @classmethod
    def from_dict(cls, payload: dict) -> "Injection":
        try:
            return cls(
                kind=payload["kind"],
                feature=payload["feature"],
                offset=payload["offset"],
                duration=payload["duration"],
                magnitude=payload["magnitude"],
                linked_events=name_list(payload.get("linked_events", []),
                                        "linked_events", ConfigError),
                couple=tuple(sorted(dict(payload.get("couple", {})).items())),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed injection: {exc}") from None


@dataclass(frozen=True)
class ScenarioSpec:
    """A scenario to generate, checked when it is made: JSON-integer seed,
    length and start, minutes in the years 1 to 9999, feature and event names
    that keep the metric-name rule, injections that fit the scenario and do
    not overlap on one feature, and finite baselines."""

    seed: int = 0
    duration_minutes: int = 10_800
    start_minute: int = DEFAULT_START_MINUTE
    features: tuple[str, ...] = DEFAULT_STAT_FEATURES
    events: tuple[str, ...] = EVENT_POOL
    injections: tuple[Injection, ...] = ()
    baselines: tuple[tuple[str, Baseline], ...] = ()

    def __post_init__(self):
        check_least(self, {"seed": 0, "duration_minutes": 2})
        json_int(self.start_minute, "start_minute", ConfigError)
        last = self.start_minute + self.duration_minutes - 1
        if not FIRST_MINUTE <= self.start_minute <= last <= LAST_MINUTE:
            raise ConfigError(f"scenario minutes {self.start_minute} to {last} fall "
                              f"outside the years 1 to 9999 (epoch minutes "
                              f"{FIRST_MINUTE} to {LAST_MINUTE})")
        check_names(self.features, ConfigError, "features")
        check_names(self.events, ConfigError, "events")
        spans: dict[str, list[tuple[int, int]]] = {}
        for inj in self.injections:
            if inj.feature not in self.features:
                raise ConfigError(f"injection targets unknown feature {inj.feature!r}")
            if inj.offset < 0 or inj.offset + inj.duration > self.duration_minutes:
                raise ConfigError(
                    f"injection on {inj.feature} at offset {inj.offset} for "
                    f"{inj.duration} minutes falls outside the "
                    f"{self.duration_minutes}-minute scenario")
            for name in inj.linked_events:
                if name not in self.events:
                    raise ConfigError(f"linked event {name!r} is not in the event pool")
            for name, _ in inj.couple:
                if name not in self.features:
                    raise ConfigError(f"coupled feature {name!r} is unknown")
            span = (inj.offset, inj.offset + inj.duration)
            for other in spans.get(inj.feature, ()):
                if span[0] < other[1] and other[0] < span[1]:
                    raise ConfigError(
                        f"two injections on {inj.feature} overlap in time")
            spans.setdefault(inj.feature, []).append(span)
        for name, base in self.baselines:
            if name not in self.features:
                raise ConfigError(f"baseline for unknown feature {name!r}")
            for item in fields(Baseline):
                value = getattr(base, item.name)
                if type(value) not in (int, float) or not finite(value):
                    raise ConfigError(f"baseline {name}.{item.name} must be a finite "
                                      f"number, got {value!r}")
            if base.noise_sigma < 0:
                raise ConfigError(f"baseline {name}.noise_sigma cannot be negative, "
                                  f"got {base.noise_sigma}")

    def baseline_for(self, feature: str) -> Baseline:
        baselines = {**DEFAULT_BASELINES, **dict(self.baselines)}
        if feature in baselines:
            return baselines[feature]
        return _default_baseline(self.features.index(feature))

    def to_dict(self) -> dict:
        payload = {
            "seed": self.seed,
            "duration_minutes": self.duration_minutes,
            "start_minute": self.start_minute,
            "features": list(self.features),
            "events": list(self.events),
            "injections": [inj.to_dict() for inj in self.injections],
        }
        if self.baselines:
            payload["baselines"] = {name: asdict(b) for name, b in self.baselines}
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioSpec":
        try:
            baselines = tuple(
                (name, Baseline(**vals))
                for name, vals in sorted(payload.get("baselines", {}).items()))
            return cls(
                seed=payload.get("seed", 0),
                duration_minutes=payload["duration_minutes"],
                start_minute=payload.get("start_minute", DEFAULT_START_MINUTE),
                features=name_list(payload.get("features", [*DEFAULT_STAT_FEATURES]),
                                   "features", ConfigError),
                events=name_list(payload.get("events", [*EVENT_POOL]), "events",
                                 ConfigError),
                injections=tuple(Injection.from_dict(p)
                                 for p in payload.get("injections", ())),
                baselines=baselines,
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed scenario: {exc}") from None

    def write_json(self, path: str) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def read_json(cls, path: str) -> "ScenarioSpec":
        return cls.from_dict(read_json(path, ConfigError))


@dataclass(frozen=True)
class TruthLabel:
    """Ground-truth anomaly interval in absolute epoch minutes (end exclusive)."""

    feature: str
    kind: str
    start: int
    end: int
    magnitude: float
    sigma_ratio: float  # magnitude over the feature's baseline noise sigma

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Scenario:
    spec: ScenarioSpec
    stats: MetricFrame
    events: MetricFrame
    labels: tuple[TruthLabel, ...]


def generate(spec: ScenarioSpec) -> Scenario:
    rng = np.random.default_rng(spec.seed)
    n = spec.duration_minutes
    timestamps = spec.start_minute + np.arange(n, dtype=np.int64)

    stat_values = np.empty((n, len(spec.features)))
    for j, name in enumerate(spec.features):
        stat_values[:, j] = spec.baseline_for(name).series(n, rng)

    event_values = np.empty((n, len(spec.events)))
    for j, name in enumerate(spec.events):
        level = 3.0 + 0.5 * j
        event_values[:, j] = np.maximum(level + rng.normal(0.0, 1.0, n), 0.0)

    labels = []
    for inj in spec.injections:
        shape = inj.shape()
        lo, hi = inj.offset, inj.offset + inj.duration
        col = spec.features.index(inj.feature)
        stat_values[lo:hi, col] += shape
        for name, frac in inj.couple:
            stat_values[lo:hi, spec.features.index(name)] += frac * shape
        for name in inj.linked_events:
            lag = int(rng.integers(1, 4))
            scale = 8.0 + 4.0 * rng.random()
            j = spec.events.index(name)
            span = event_values[lo + lag:hi + lag, j]
            span += scale * shape[:len(span)]
        noise = spec.baseline_for(inj.feature).noise_sigma
        labels.append(TruthLabel(
            feature=inj.feature, kind=inj.kind,
            start=int(timestamps[lo]), end=int(timestamps[lo]) + inj.duration,
            magnitude=inj.magnitude,
            sigma_ratio=inj.magnitude / noise if noise > 0 else math.inf))

    stats = MetricFrame(spec.features, timestamps, stat_values, kind="stat")
    events = MetricFrame(spec.events, timestamps.copy(), event_values, kind="event")
    return Scenario(spec, stats, events, tuple(labels))


def default_scenario(seed: int = 7, duration_minutes: int = 10_800) -> ScenarioSpec:
    """The stock demonstration scenario: three injections of distinct size.

    A sharp session spike (largest, relative to noise), a sustained
    physical-read shift, and a gradual lock pile-up that bleeds into the
    session count and drags its classic wait events along.
    """
    if duration_minutes < 600:
        raise ConfigError(f"default scenario needs at least 600 minutes, "
                          f"got {duration_minutes}")
    def at(frac: float) -> int:
        return int(duration_minutes * frac)

    injections = (
        Injection("spike", "active_session", at(0.30), 8, 45.0,
                  linked_events=("log_file_sync", "db_file_sequential_read")),
        Injection("shift", "physical_reads", at(0.55), 25, 400.0,
                  linked_events=("direct_path_read", "db_file_scattered_read")),
        Injection("ramp", "lock_waiting_session", at(0.80), 15, 16.5,
                  linked_events=("enq_tx_row_lock_contention", "buffer_busy_waits"),
                  couple=(("active_session", 0.6),)),
    )
    return ScenarioSpec(seed=seed, duration_minutes=duration_minutes,
                        injections=injections)


def null_scenario(seed: int = 11, duration_minutes: int = 2_000) -> ScenarioSpec:
    """An injection-free scenario for false-alarm measurement."""
    return ScenarioSpec(seed=seed, duration_minutes=duration_minutes)


def drift_scenario(seed: int = 13, duration_minutes: int = 10_800) -> ScenarioSpec:
    """A strongly non-stationary variant of the stock scenario.

    Every feature's level drifts by ``DRIFT_FACTOR`` daily amplitudes over
    the scenario, on top of the daily cycle. Global z-normalization cannot
    remove that kind of drift, so models without per-window normalization
    reconstruct poorly everywhere; this is the setting that separates the
    normalization strategies.
    """
    base = default_scenario(seed=seed, duration_minutes=duration_minutes)
    drifted = []
    for name in base.features:
        b = base.baseline_for(name)
        slope = DRIFT_FACTOR * b.daily_amplitude / duration_minutes
        drifted.append((name, replace(b, trend_slope=slope)))
    return ScenarioSpec(seed=seed, duration_minutes=duration_minutes,
                        injections=base.injections, baselines=tuple(drifted))


def evaluate_detection(labels: tuple[TruthLabel, ...], groups) -> dict:
    """Score ranked detections against ground truth.

    ``groups`` is any sequence of ranked objects with start/end/rank
    attributes (anomaly periods or period groups). A truth counts as hit by
    a detection when their overlap covers at least ``MIN_OVERLAP_FRACTION``
    of the truth interval; each truth reports the best (lowest) qualifying
    rank.
    """
    rows = []
    for lab in labels:
        need = MIN_OVERLAP_FRACTION * (lab.end - lab.start)
        best_rank = None
        best_overlap = 0
        for g in groups:
            ov = max(0, min(g.end, lab.end) - max(g.start, lab.start))
            best_overlap = max(best_overlap, ov)
            if ov >= need and (best_rank is None or g.rank < best_rank):
                best_rank = g.rank
        rows.append({"label": lab.to_dict(), "hit_rank": best_rank,
                     "best_overlap_minutes": best_overlap})
    hit_ranks = [r["hit_rank"] for r in rows]
    return {
        "truths": rows,
        "all_hit": all(r is not None for r in hit_ranks),
        "worst_rank": max((r for r in hit_ranks if r is not None), default=None),
        "detections": len(groups),
    }
