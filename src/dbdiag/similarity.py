"""Similarity measures for linking wait events to anomalous metrics.

Two deliberately different lenses: dynamic time warping tolerates small time
shifts (a lock pile-up shows up in the session count a minute or two later)
but is an unbounded distance, while Pearson correlation is shift-intolerant
and scale-free. Both series are z-normalized before comparison so shape, not
magnitude, drives the ranking. The two measures genuinely disagree on some
pairs; the ranking report therefore carries both orders side by side rather
than blending them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import MetricFrame, minute_to_iso
from .errors import DataError


def dtw_distance(a: np.ndarray, b: np.ndarray,
                 squared: bool = False) -> float | np.ndarray:
    """Classic dynamic-programming DTW with unit steps and no band.

    Pointwise cost is |a_i - b_j| (squared when requested); the warping path
    may match, insert, or delete one element at a time. ``b`` is one series
    of shape (m,), which gives a float, or k series of shape (k, m), which
    gives k distances from ``a`` as a (k,) array.

    Cells D[i, j] are filled one anti-diagonal i + j = d at a time, every
    cell of a diagonal (and of every row of ``b``) in one NumPy step. Each
    cell is still cost + min(diag, up, left) on the same operands, so the
    result is bit-identical to the row-by-row recurrence. Non-finite input
    is rejected: NaN would make the minimum depend on operand order.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim not in (1, 2):
        raise DataError(f"DTW needs a 1-d series against one or a stack of 1-d "
                        f"series, got shapes {a.shape} and {b.shape}")
    if a.size == 0 or b.size == 0:
        raise DataError("DTW over an empty series")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DataError("DTW over a series holding NaN or inf")
    rows = np.atleast_2d(b)
    n, m = a.size, rows.shape[1]
    # Buffer d % 3 holds diagonal d, indexed by row i: D[i, d - i]. Row 0
    # and row d of diagonal d are the D[0, d] and D[d, 0] borders; row 0 is
    # reset on every step because diagonal 0 leaves D[0, 0] = 0 there.
    diags = np.full((3, rows.shape[0], n + 1), np.inf)
    diags[0, :, 0] = 0.0
    b_rev = rows[:, ::-1]
    for d in range(2, n + m + 1):
        lo, hi = max(1, d - m), min(n, d - 1)
        cur, prev, prev2 = diags[d % 3], diags[(d - 1) % 3], diags[(d - 2) % 3]
        cur[:, 0] = np.inf
        out = cur[:, lo:hi + 1]
        np.minimum(prev2[:, lo - 1:hi], prev[:, lo - 1:hi], out=out)
        np.minimum(out, prev[:, lo:hi + 1], out=out)
        # b[j - 1] for j = d - i is b_rev[m - d + i].
        costs = np.abs(a[lo - 1:hi] - b_rev[:, m - d + lo:m - d + hi + 1])
        if squared:
            costs *= costs
        np.add(costs, out, out=out)
    dist = diags[(n + m) % 3, :, n]
    return float(dist[0]) if b.ndim == 1 else dist.copy()


def pearson(a: np.ndarray, b: np.ndarray) -> float | None:
    """Sample correlation coefficient; None when either series is constant."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.size != b.size:
        raise DataError(f"correlation needs equal-length 1-d series, "
                        f"got shapes {a.shape} and {b.shape}")
    if a.size < 2:
        raise DataError(f"correlation needs at least 2 samples, got {a.size}")
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt(np.sum(da * da) * np.sum(db * db))
    if denom == 0.0:
        return None
    return float(np.sum(da * db) / denom)


def znorm(series: np.ndarray) -> np.ndarray:
    """Z-normalize with the population std; constant series map to zeros."""
    series = np.asarray(series, dtype=np.float64)
    std = series.std()
    if std == 0.0:
        return np.zeros_like(series)
    return (series - series.mean()) / std


@dataclass(frozen=True)
class EventMatch:
    event: str
    dtw: float
    correlation: float | None
    rank_dtw: int
    rank_correlation: int

    def to_dict(self) -> dict:
        return {"event": self.event, "dtw": self.dtw,
                "correlation": self.correlation, "rank_dtw": self.rank_dtw,
                "rank_correlation": self.rank_correlation}


def match_events(stat_frame: MetricFrame, feature: str, event_frame: MetricFrame,
                 start: int, end: int, margin: int = 0) -> list[EventMatch]:
    """Rank wait events against one metric over an anomaly period.

    Slices both frames to [start, end + margin) epoch minutes, z-normalizes
    every series, then scores each event by DTW distance (smaller is more
    similar) and Pearson correlation (larger is). rank_dtw orders by
    ascending distance, rank_correlation by descending correlation with
    undefined correlations last; ties break on event name. The returned list
    is in DTW order.
    """
    if margin < 0:
        raise DataError(f"margin cannot be negative, got {margin}")
    if end <= start:
        raise DataError(f"period end {end} is not after start {start}")
    try:
        stat_slice = stat_frame.slice_minutes(start, end + margin)
    except DataError as exc:
        raise DataError(f"anomaly period [{minute_to_iso(start)} .. "
                        f"{minute_to_iso(end)}] does not overlap the metric "
                        f"series: {exc}") from None
    try:
        event_slice = event_frame.slice_minutes(start, end + margin)
    except DataError:
        warnings.warn(f"no event samples overlap the anomaly period "
                      f"[{minute_to_iso(start)} .. {minute_to_iso(end)}]; "
                      f"nothing to rank", stacklevel=2)
        return []
    target = znorm(stat_slice.column(feature))
    if len(stat_slice.timestamps) != len(event_slice.timestamps) or np.any(
            stat_slice.timestamps != event_slice.timestamps):
        raise DataError("metric and event series cover different minutes over "
                        "the period; align them before matching")

    if not event_frame.metric_names:
        return []
    series = np.stack([znorm(event_slice.column(name))
                       for name in event_frame.metric_names])
    distances = dtw_distance(target, series)
    rows = [(name, float(dist), pearson(target, s))
            for name, dist, s in zip(event_frame.metric_names, distances, series)]

    by_dtw = sorted(rows, key=lambda r: (r[1], r[0]))
    dtw_rank = {name: i + 1 for i, (name, _, _) in enumerate(by_dtw)}
    by_corr = sorted(rows, key=lambda r: (r[2] is None, -(r[2] or 0.0), r[0]))
    corr_rank = {name: i + 1 for i, (name, _, _) in enumerate(by_corr)}

    return [EventMatch(name, d, c, dtw_rank[name], corr_rank[name])
            for name, d, c in by_dtw]
