"""DTW, correlation, and event ranking."""

import math

import numpy as np
import pytest

from dbdiag import MetricFrame, dtw_distance, match_events, pearson
from dbdiag.errors import DataError
from dbdiag.similarity import znorm


def dtw_by_path_enumeration(a, b):
    """Minimum path cost by walking every monotone warping path.

    Costs accumulate front-to-back along each path, matching the order the
    dynamic program adds them in, so agreement can be checked exactly.
    """
    n, m = len(a), len(b)

    def walk(i, j, acc):
        acc = acc + abs(a[i] - b[j])
        if i == n - 1 and j == m - 1:
            return acc
        best = math.inf
        if i + 1 < n:
            best = min(best, walk(i + 1, j, acc))
        if j + 1 < m:
            best = min(best, walk(i, j + 1, acc))
        if i + 1 < n and j + 1 < m:
            best = min(best, walk(i + 1, j + 1, acc))
        return best

    return walk(0, 0, 0.0)


def dtw_by_rows(a, b):
    """The original row-by-row DTW loop, kept as the exact reference."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, m = a.size, b.size
    prev = np.full(m + 1, np.inf)
    prev[0] = 0.0
    cur = np.empty(m + 1)
    for i in range(1, n + 1):
        cur[0] = np.inf
        costs = np.abs(a[i - 1] - b)
        for j in range(1, m + 1):
            cur[j] = costs[j - 1] + min(prev[j - 1], prev[j], cur[j - 1])
        prev, cur = cur, prev
    return float(prev[m])


class TestDtw:
    def test_identical_series_cost_zero(self, rng):
        x = rng.normal(size=20)
        assert dtw_distance(x, x) == 0.0

    def test_hand_case(self):
        assert dtw_distance(np.array([1.0, 2, 3]), np.array([2.0, 3, 4])) == 2.0

    def test_duplicated_tail_is_free(self):
        assert dtw_distance(np.array([0.0, 1, 2]), np.array([0.0, 1, 2, 2])) == 0.0

    def test_matches_path_enumeration_exactly(self):
        rng = np.random.default_rng(42)
        for _ in range(150):
            n, m = rng.integers(1, 7, size=2)
            a = np.round(rng.normal(size=n), 3)
            b = np.round(rng.normal(size=m), 3)
            assert dtw_distance(a, b) == dtw_by_path_enumeration(a, b)

    def test_symmetric_and_nonnegative(self, rng):
        for _ in range(25):
            a = rng.normal(size=rng.integers(2, 12))
            b = rng.normal(size=rng.integers(2, 12))
            d = dtw_distance(a, b)
            assert d >= 0.0
            assert d == pytest.approx(dtw_distance(b, a), rel=1e-12)

    def test_empty_series_rejected(self):
        with pytest.raises(DataError):
            dtw_distance(np.array([]), np.array([1.0]))
        with pytest.raises(DataError):
            dtw_distance(np.array([1.0]), np.empty((3, 0)))

    @pytest.mark.parametrize("n, m", [(80, 60), (60, 80), (45, 45), (1, 60),
                                      (60, 1), (1, 1), (2, 3)])
    def test_matches_row_by_row_loop_exactly(self, n, m):
        rng = np.random.default_rng(n * 1000 + m)
        a = rng.normal(size=n)
        b = rng.normal(size=m) * 2.0 + 0.5
        assert dtw_distance(a, b) == dtw_by_rows(a, b)

    def test_stacked_rows_equal_separate_calls(self, rng):
        a = rng.normal(size=37)
        b = rng.normal(size=(5, 23))
        batched = dtw_distance(a, b)
        assert isinstance(batched, np.ndarray) and batched.shape == (5,)
        for row, dist in zip(b, batched):
            single = dtw_distance(a, row)
            assert isinstance(single, float)
            assert dist == single == dtw_by_rows(a, row)

    @pytest.mark.parametrize("n, m, k", [(300, 300, 10), (243, 250, 10),
                                         (250, 243, 10), (1, 300, 10),
                                         (300, 1, 10), (120, 120, 1)])
    def test_report_sized_stacks_match_the_row_loop_exactly(self, n, m, k):
        """The sizes a report ranks (a period of a few hundred minutes, ten
        wait events), with either series the longer and one of length 1."""
        rng = np.random.default_rng(n * 1000 + m + k)
        a = rng.normal(size=n)
        b = rng.normal(size=(k, m)) * 1.5 - 0.25
        dist = dtw_distance(a, b)
        assert dist.shape == (k,)
        assert [float(d) for d in dist] == [dtw_by_rows(a, row) for row in b]

    def test_equal_cost_ties_match_the_row_loop_exactly(self):
        """Small integers make many paths and neighbours cost the same."""
        rng = np.random.default_rng(7)
        a = rng.integers(0, 3, size=70).astype(float)
        b = rng.integers(0, 3, size=(6, 55)).astype(float)
        assert [float(d) for d in dtw_distance(a, b)] == [dtw_by_rows(a, r) for r in b]

    def test_read_only_inputs_are_accepted_and_left_unchanged(self, rng):
        a = rng.normal(size=30)
        b = rng.normal(size=(4, 25))
        a_copy, b_copy = a.copy(), b.copy()
        a.flags.writeable = False
        b.flags.writeable = False
        dist = dtw_distance(a, b)
        single = dtw_distance(a, b[2])
        assert isinstance(single, float) and single == dist[2]
        assert np.array_equal(a, a_copy) and np.array_equal(b, b_copy)

    def test_shapes_rejected(self):
        with pytest.raises(DataError):
            dtw_distance(np.ones(3), np.ones((2, 2, 3)))
        with pytest.raises(DataError):
            dtw_distance(np.ones((2, 3)), np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        clean = np.arange(6.0)
        dirty = clean.copy()
        dirty[2] = bad
        with pytest.raises(DataError, match="NaN or inf"):
            dtw_distance(dirty, clean)
        with pytest.raises(DataError, match="NaN or inf"):
            dtw_distance(clean, np.stack([clean, dirty]))


class TestPearson:
    def test_hand_case(self):
        r = pearson(np.array([1.0, 2, 3]), np.array([1.0, 2, 4]))
        assert r == pytest.approx(9 / math.sqrt(84), abs=1e-12)

    def test_self_and_negation(self, rng):
        x = rng.normal(size=30)
        assert pearson(x, x) == pytest.approx(1.0)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_positive_affine_invariance(self, rng):
        a = rng.normal(size=40)
        b = rng.normal(size=40)
        r0 = pearson(a, b)
        r1 = pearson(3.5 * a + 100.0, b)
        assert r1 == pytest.approx(r0, abs=1e-12)

    def test_constant_series_undefined(self):
        assert pearson(np.ones(5), np.arange(5.0)) is None

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            pearson(np.ones(4), np.ones(5))

    def test_single_sample_rejected(self):
        with pytest.raises(DataError):
            pearson(np.array([1.0]), np.array([2.0]))


class TestZnorm:
    def test_standardizes(self, rng):
        z = znorm(rng.normal(size=100) * 9 + 40)
        assert z.mean() == pytest.approx(0.0, abs=1e-12)
        assert z.std() == pytest.approx(1.0)

    def test_constant_maps_to_zeros(self):
        np.testing.assert_array_equal(znorm(np.full(6, 3.0)), np.zeros(6))


def frames_for_matching(rng, n=50):
    ts = np.arange(2000, 2000 + n, dtype=np.int64)
    base = rng.normal(size=n)
    base[20:28] += 8.0
    stat = MetricFrame(("sessions",), ts, base.reshape(-1, 1))
    events = MetricFrame(
        ("identical", "flat", "noise"),
        ts,
        np.column_stack([
            4.0 * base + 7.0,        # affine copy: identical after z-norm
            np.full(n, 2.0),
            rng.normal(size=n),
        ]),
        kind="event")
    return stat, events


class TestMatchEvents:
    def test_affine_copy_wins_both_measures(self, rng):
        stat, events = frames_for_matching(rng)
        matches = match_events(stat, "sessions", events, 2000, 2050)
        best = matches[0]
        assert best.event == "identical"
        assert best.rank_dtw == 1 and best.rank_correlation == 1
        assert best.dtw == pytest.approx(0.0, abs=1e-9)

    def test_constant_event_ranks_last_by_correlation(self, rng):
        stat, events = frames_for_matching(rng)
        matches = match_events(stat, "sessions", events, 2000, 2050)
        flat = next(m for m in matches if m.event == "flat")
        assert flat.correlation is None
        assert flat.rank_correlation == len(matches)

    def test_result_is_in_dtw_order(self, rng):
        stat, events = frames_for_matching(rng)
        matches = match_events(stat, "sessions", events, 2000, 2050)
        assert [m.rank_dtw for m in matches] == [1, 2, 3]

    def test_margin_extends_the_slice(self, rng):
        stat, events = frames_for_matching(rng)
        a = match_events(stat, "sessions", events, 2000, 2030)
        b = match_events(stat, "sessions", events, 2000, 2030, margin=10)
        noise_a = next(m for m in a if m.event == "noise")
        noise_b = next(m for m in b if m.event == "noise")
        assert noise_a.dtw != noise_b.dtw

    def test_no_event_overlap_gives_empty_result_with_warning(self, rng):
        stat, _ = frames_for_matching(rng)
        far = MetricFrame(("e",), np.arange(90_000, 90_010, dtype=np.int64),
                          np.ones((10, 1)), kind="event")
        with pytest.warns(UserWarning, match="no event samples"):
            out = match_events(stat, "sessions", far, 2000, 2010)
        assert out == []

    def test_a_frame_without_events_is_refused(self, rng):
        _, events = frames_for_matching(rng)
        with pytest.raises(DataError, match="metric_names: there must be at least one name"):
            MetricFrame((), events.timestamps, np.empty((len(events.timestamps), 0)),
                        kind="event")

    def test_period_outside_the_stat_series_rejected(self, rng):
        stat, events = frames_for_matching(rng)
        with pytest.raises(DataError):
            match_events(stat, "sessions", events, 500, 600)

    def test_misaligned_minutes_rejected(self, rng):
        stat, _ = frames_for_matching(rng)
        offset = MetricFrame(("e",), np.arange(2025, 2075, dtype=np.int64),
                             np.ones((50, 1)), kind="event")
        with pytest.raises(DataError, match="align"):
            match_events(stat, "sessions", offset, 2000, 2050)

    def test_backwards_period_rejected(self, rng):
        stat, events = frames_for_matching(rng)
        with pytest.raises(DataError):
            match_events(stat, "sessions", events, 2050, 2000)
