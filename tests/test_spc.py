"""Control charts, flagging, period merging and grouping."""

import numpy as np
import pytest

from dbdiag import ScoreSeries, detect, group_periods, merge_periods
from dbdiag.errors import ConfigError, DataError
from dbdiag.spc import AnomalyPeriod, find_out_of_control, fit_chart


def series_of(scores, starts=None, steps=30, features=("f",)):
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim == 1:
        scores = scores.reshape(-1, 1)
    if starts is None:
        starts = np.arange(scores.shape[0], dtype=np.int64)
    return ScoreSeries(scores, np.asarray(starts, dtype=np.int64), steps,
                       tuple(features))


class TestChart:
    def test_limits_hand_case(self):
        chart = fit_chart(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), "f")
        assert chart.center == pytest.approx(3.0)
        assert chart.sigma == pytest.approx(np.sqrt(2.5))
        assert chart.ucl == pytest.approx(3.0 + 3 * np.sqrt(2.5))
        assert chart.lcl == pytest.approx(3.0 - 3 * np.sqrt(2.5))

    def test_sigma_is_the_sample_estimate(self, rng):
        x = rng.normal(size=200)
        chart = fit_chart(x, "f")
        assert chart.sigma == pytest.approx(x.std(ddof=1))

    def test_k_scales_the_band(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        wide = fit_chart(x, "f", k=3.0)
        narrow = fit_chart(x, "f", k=2.0)
        assert narrow.ucl < wide.ucl
        assert narrow.lcl > wide.lcl

    def test_needs_two_scores(self):
        with pytest.raises(DataError):
            fit_chart(np.array([1.0]), "f")

    @pytest.mark.parametrize("k", [0.0, -1.0, np.nan, np.inf])
    def test_k_must_be_finite_and_positive(self, k):
        with pytest.raises(ConfigError, match="sigma multiplier"):
            fit_chart(np.array([1.0, 2.0, 3.0]), "f", k=k)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_names_the_feature(self, bad):
        with pytest.raises(DataError, match="'cpu'"):
            fit_chart(np.array([1.0, bad, 3.0]), "cpu")

    def test_only_the_upper_side_flags(self):
        chart = fit_chart(np.array([0.0, 1.0, 2.0]), "f", k=0.5)
        scores = np.array([chart.lcl - 10.0, chart.center, chart.ucl + 0.1])
        np.testing.assert_array_equal(find_out_of_control(scores, chart), [2])

    def test_exactly_on_the_limit_does_not_flag(self):
        chart = fit_chart(np.array([0.0, 2.0]), "f")
        assert find_out_of_control(np.array([chart.ucl]), chart).size == 0


class TestMergePeriods:
    def test_single_run_hand_case(self):
        scores = np.array([0.1, 5.0, 7.0, 6.0, 0.1])
        starts = np.array([9, 10, 11, 12, 13], dtype=np.int64)
        periods = merge_periods(np.array([1, 2, 3]), scores, starts, 30, "f")
        assert len(periods) == 1
        p = periods[0]
        assert (p.start, p.end) == (10, 42)  # last start + window length
        assert p.duration == 32
        assert p.peak_score == 7.0
        assert p.peak_window_start == 11
        assert p.rank == 1

    def test_gap_splits_without_tolerance(self):
        scores = np.arange(10.0)
        starts = np.arange(10, dtype=np.int64)
        periods = merge_periods(np.array([1, 2, 6]), scores, starts, 5, "f")
        assert [(p.start, p.end) for p in periods] == [(6, 11), (1, 7)]

    def test_gap_tolerance_bridges(self):
        scores = np.arange(10.0)
        starts = np.arange(10, dtype=np.int64)
        periods = merge_periods(np.array([1, 2, 6]), scores, starts, 5, "f",
                                gap_tolerance=3)
        assert [(p.start, p.end) for p in periods] == [(1, 11)]

    def test_ranked_by_peak_then_start(self):
        scores = np.array([9.0, 0.0, 9.0, 0.0, 4.0])
        starts = np.arange(5, dtype=np.int64)
        periods = merge_periods(np.array([0, 2, 4]), scores, starts, 2, "f")
        assert [(p.rank, p.start) for p in periods] == [(1, 0), (2, 2), (3, 4)]

    def test_no_flags_no_periods(self):
        assert merge_periods(np.array([], dtype=np.int64), np.zeros(3),
                             np.arange(3, dtype=np.int64), 5, "f") == []


class TestDetect:
    def test_injected_step_is_found(self):
        scores = np.full(300, 1.0)
        scores += np.random.default_rng(0).normal(0.0, 0.05, 300)
        scores[100:110] += 4.0
        result = detect(series_of(scores))
        periods = result.periods["f"]
        assert len(periods) == 1
        assert periods[0].start == 100

    def test_baseline_limits_apply_to_new_scores(self):
        rng = np.random.default_rng(1)
        base = series_of(rng.normal(1.0, 0.05, 500))
        fresh = np.full(100, 1.0)
        fresh[50:55] = 2.0  # big only relative to the clean baseline
        result = detect(series_of(fresh), baseline=base)
        assert [p.start for p in result.periods["f"]] == [50]

    def test_non_finite_scored_window_is_refused(self):
        # a NaN never exceeds the limit, so it must not pass as in control
        base = np.random.default_rng(1).normal(1.0, 0.05, (50, 2))
        fresh = np.ones((20, 2))
        fresh[13, 1] = np.nan
        with pytest.raises(DataError, match="feature 'b' in window 13 "):
            detect(series_of(fresh, features=("a", "b")),
                   baseline=series_of(base, features=("a", "b")))

    def test_baseline_feature_mismatch_rejected(self):
        with pytest.raises(DataError):
            detect(series_of(np.ones(10)),
                   baseline=series_of(np.ones(10), features=("other",)))

    def test_baseline_window_length_mismatch_rejected(self):
        # limits fitted on 5-minute windows mean nothing for 30-minute ones
        with pytest.raises(DataError) as caught:
            detect(series_of(np.ones(10)), baseline=series_of(np.ones(10), steps=5))
        assert str(caught.value) == ("baseline 5-minute windows of [f] do not match "
                                     "scored 30-minute windows of [f]")

    def test_all_periods_orders_by_peak(self):
        scores = np.column_stack([
            np.concatenate([np.zeros(50), [5.0], np.zeros(49)]),
            np.concatenate([np.zeros(80), [9.0], np.zeros(19)]),
        ])
        result = detect(series_of(scores, features=("a", "b")))
        tops = result.all_periods()
        assert tops[0].feature == "b"


class TestGroupPeriods:
    def period(self, feature, start, end, peak):
        return AnomalyPeriod(feature=feature, start=start, end=end,
                             peak_score=peak, peak_window_start=start, rank=1)

    def test_overlapping_features_fuse(self):
        scores = np.zeros((200, 2))
        scores[100:108, 0] = 5.0
        scores[103:112, 1] = 9.0
        result = detect(series_of(scores, steps=5, features=("a", "b")))
        groups = group_periods(result)
        assert len(groups) == 1
        g = groups[0]
        assert g.features == ("a", "b")
        assert g.primary_feature == "b"
        assert g.start == 100 and g.end == 111 + 5
        assert g.rank == 1

    def test_disjoint_periods_stay_apart(self):
        scores = np.zeros((300, 1))
        scores[50:55, 0] = 5.0
        scores[200:210, 0] = 3.0
        result = detect(series_of(scores, steps=5))
        groups = group_periods(result)
        assert len(groups) == 2
        assert groups[0].peak_score > groups[1].peak_score
        assert [g.rank for g in groups] == [1, 2]
