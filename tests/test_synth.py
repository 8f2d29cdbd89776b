"""Synthetic scenario generation and its ground-truth labels."""

import json

import numpy as np
import pytest

from dbdiag import (
    Injection,
    ScenarioSpec,
    default_scenario,
    drift_scenario,
    evaluate_detection,
    generate,
    null_scenario,
)
from dbdiag.data import FIRST_MINUTE, LAST_MINUTE, minutes_to_iso
from dbdiag.errors import ConfigError
from dbdiag.spc import AnomalyPeriod


def tiny_spec(**kw):
    defaults = dict(seed=1, duration_minutes=700)
    defaults.update(kw)
    return ScenarioSpec(**defaults)


class TestSpecValidation:
    def test_overlapping_injections_on_one_feature_rejected(self):
        with pytest.raises(ConfigError):
            tiny_spec(injections=(
                Injection("spike", "cpu_used", 100, 20, 5.0),
                Injection("shift", "cpu_used", 110, 20, 5.0),
            ))

    def test_same_minutes_on_different_features_is_fine(self):
        tiny_spec(injections=(
            Injection("spike", "cpu_used", 100, 20, 5.0),
            Injection("shift", "physical_reads", 100, 20, 5.0),
        ))

    def test_out_of_bounds_injection_rejected(self):
        with pytest.raises(ConfigError):
            tiny_spec(injections=(
                Injection("spike", "cpu_used", 690, 20, 5.0),))

    def test_unknown_feature_rejected(self):
        with pytest.raises(ConfigError):
            tiny_spec(injections=(
                Injection("spike", "no_such_metric", 10, 5, 1.0),))

    def test_unknown_event_rejected(self):
        with pytest.raises(ConfigError):
            tiny_spec(injections=(
                Injection("spike", "cpu_used", 10, 5, 1.0,
                          linked_events=("made_up_wait",)),))

    def test_couple_fraction_must_be_in_unit_interval(self):
        with pytest.raises(ConfigError):
            tiny_spec(injections=(
                Injection("spike", "cpu_used", 10, 5, 1.0,
                          couple=(("active_session", 1.5),)),))

    @pytest.mark.parametrize("start, ok", [
        (FIRST_MINUTE - 1, False), (FIRST_MINUTE, True),
        (LAST_MINUTE - 699, True), (LAST_MINUTE - 698, False),
        (-2_000_000_000, False)])
    def test_minutes_must_lie_in_the_years_1_to_9999(self, start, ok):
        """The first and last minute of the 700-minute scenario must be
        writable as ISO stamps."""
        if not ok:
            with pytest.raises(ConfigError, match="outside the years 1 to 9999"):
                tiny_spec(start_minute=start)
            return
        stamps = generate(tiny_spec(start_minute=start)).stats.timestamps
        assert minutes_to_iso(stamps[[0, -1]])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            tiny_spec(injections=(
                Injection("wobble", "cpu_used", 10, 5, 1.0),))

    @pytest.mark.parametrize("payload", [
        [], {"duration_minutes": 100, "baselines": []}], ids=["list", "list_baselines"])
    def test_non_object_json_rejected(self, payload):
        with pytest.raises(ConfigError, match="malformed scenario"):
            ScenarioSpec.from_dict(payload)

    @pytest.mark.parametrize("field,value", [
        ("features", "cpu"), ("events", "io"), ("features", ["cpu", 1]),
        ("events", {"io": 1})])
    def test_name_lists_must_be_lists_of_strings(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be a JSON list of strings"):
            ScenarioSpec.from_dict({"duration_minutes": 100, field: value})

    @pytest.mark.parametrize("value", ["log_file_sync", ["log_file_sync", 3]])
    def test_linked_events_must_be_a_list_of_strings(self, value):
        injection = {"kind": "spike", "feature": "cpu_used", "offset": 10,
                     "duration": 5, "magnitude": 1.0, "linked_events": value}
        with pytest.raises(ConfigError, match="linked_events must be a JSON list of strings"):
            ScenarioSpec.from_dict({"duration_minutes": 100, "injections": [injection]})

    def test_json_roundtrip(self, tmp_path):
        spec = default_scenario(seed=5, duration_minutes=800)
        path = str(tmp_path / "spec.json")
        spec.write_json(path)
        assert ScenarioSpec.read_json(path) == spec


class TestGenerate:
    def test_pure_function_of_the_spec(self):
        a = generate(tiny_spec())
        b = generate(tiny_spec())
        np.testing.assert_array_equal(a.stats.values, b.stats.values)
        np.testing.assert_array_equal(a.events.values, b.events.values)

    def test_different_seeds_differ(self):
        a = generate(tiny_spec(seed=1))
        b = generate(tiny_spec(seed=2))
        assert not np.array_equal(a.stats.values, b.stats.values)

    def test_shapes_and_alignment(self):
        s = generate(tiny_spec())
        assert s.stats.values.shape == (700, 6)
        assert s.events.values.shape == (700, 10)
        np.testing.assert_array_equal(s.stats.timestamps, s.events.timestamps)

    def test_daily_cycle_present(self):
        s = generate(ScenarioSpec(seed=2, duration_minutes=4320))
        cpu = s.stats.column("cpu_used")
        t = np.arange(4320)
        # correlate against the known period; phase-free via sin+cos pair
        c = np.cos(2 * np.pi * t / 1440.0)
        sn = np.sin(2 * np.pi * t / 1440.0)
        x = cpu - cpu.mean()
        amp = np.hypot(x @ c, x @ sn) / (len(t) / 2)
        assert amp > 10.0  # cpu daily amplitude is 18

    def test_spike_lands_where_labeled(self):
        inj = Injection("spike", "cpu_used", 300, 8, 50.0)
        with_spec = tiny_spec(injections=(inj,))
        s = generate(with_spec)
        clean = generate(tiny_spec())
        delta = s.stats.column("cpu_used") - clean.stats.column("cpu_used")
        lab = s.labels[0]
        idx = lab.start - with_spec.start_minute
        assert np.abs(delta[:idx]).max() < 1e-9
        assert delta[idx] == pytest.approx(50.0)  # spike peaks at onset
        assert np.all(delta[idx:idx + 8] > 0.0)

    def test_shift_is_flat_and_ramp_climbs(self):
        spec = tiny_spec(injections=(
            Injection("shift", "cpu_used", 100, 10, 30.0),
            Injection("ramp", "physical_reads", 400, 10, 30.0),
        ))
        s = generate(spec)
        clean = generate(tiny_spec())
        shift = (s.stats.column("cpu_used") - clean.stats.column("cpu_used"))[100:110]
        np.testing.assert_allclose(shift, 30.0)
        ramp = (s.stats.column("physical_reads")
                - clean.stats.column("physical_reads"))[400:410]
        np.testing.assert_allclose(ramp, np.linspace(0.0, 30.0, 10))

    def test_coupling_bleeds_a_fraction_into_the_target(self):
        spec = tiny_spec(injections=(
            Injection("shift", "cpu_used", 100, 10, 30.0,
                      couple=(("active_session", 0.5),)),))
        s = generate(spec)
        clean = generate(tiny_spec())
        delta = (s.stats.column("active_session")
                 - clean.stats.column("active_session"))[100:110]
        np.testing.assert_allclose(delta, 15.0)

    def test_linked_events_bump_with_small_lag(self):
        spec = tiny_spec(injections=(
            Injection("spike", "cpu_used", 300, 8, 60.0,
                      linked_events=("log_file_sync",)),))
        s = generate(spec)
        ev = s.events.column("log_file_sync")
        base = np.delete(ev, np.s_[295:320])
        peak_at = int(np.argmax(ev))
        assert 301 <= peak_at <= 303  # onset plus one to three minutes
        assert ev[peak_at] > base.mean() + 10 * base.std()

    def test_null_scenario_has_no_labels(self):
        s = generate(null_scenario(duration_minutes=700))
        assert s.labels == ()

    def test_drift_scenario_levels_actually_drift(self):
        drifted = generate(drift_scenario(duration_minutes=2880)).stats
        flat = generate(default_scenario(seed=13, duration_minutes=2880)).stats
        for name in drifted.metric_names:
            gap = drifted.column(name) - flat.column(name)
            # pull out the linear part; it must span ~3 daily amplitudes
            rise = gap[-1] - gap[0]
            assert rise > 0.0

    def test_labels_carry_noise_relative_size(self):
        s = generate(default_scenario(seed=7, duration_minutes=1200))
        by_feature = {lab.feature: lab for lab in s.labels}
        assert by_feature["active_session"].sigma_ratio == pytest.approx(30.0)
        assert by_feature["physical_reads"].sigma_ratio == pytest.approx(10.0)
        assert by_feature["lock_waiting_session"].sigma_ratio == pytest.approx(27.5)


class TestEvaluateDetection:
    def make_period(self, start, end, rank):
        return AnomalyPeriod(feature="f", start=start, end=end,
                             peak_score=1.0, peak_window_start=start, rank=rank)

    def test_half_overlap_counts(self):
        s = generate(default_scenario(seed=7, duration_minutes=1200))
        lab = s.labels[0]
        span = lab.end - lab.start
        hit = self.make_period(lab.start + span // 2, lab.end + 50, rank=1)
        out = evaluate_detection(s.labels, [hit])
        row = next(r for r in out["truths"]
                   if r["label"]["feature"] == lab.feature)
        assert row["hit_rank"] == 1
        assert not out["all_hit"]  # other two truths unmatched

    def test_sub_threshold_overlap_misses(self):
        s = generate(default_scenario(seed=7, duration_minutes=1200))
        lab = s.labels[0]
        graze = self.make_period(lab.end - 1, lab.end + 100, rank=1)
        out = evaluate_detection((lab,), [graze])
        assert out["truths"][0]["hit_rank"] is None
        assert out["truths"][0]["best_overlap_minutes"] == 1

    def test_best_rank_wins(self):
        s = generate(default_scenario(seed=7, duration_minutes=1200))
        lab = s.labels[0]
        out = evaluate_detection((lab,), [
            self.make_period(lab.start, lab.end, rank=4),
            self.make_period(lab.start, lab.end, rank=2),
        ])
        assert out["truths"][0]["hit_rank"] == 2
        assert out["worst_rank"] == 2
