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
from dataclasses import asdict, dataclass

import numpy as np

from .data import MetricFrame, minute_to_iso
from .errors import ConfigError, DataError


def dtw_distance(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Classic dynamic-programming DTW with unit steps and no band.

    Pointwise cost is |a_i - b_j|; the warping path may match, insert, or
    delete one element at a time. ``b`` is one series of shape (m,), which
    gives a float, or k series of shape (k, m), which gives k distances from
    ``a`` as a (k,) array.

    Cells D[i, j] are filled one anti-diagonal i + j = d at a time, every
    cell of a diagonal (and of every row of ``b``) in one NumPy step. Each
    cell is still cost + min(min(diag, up), left) on the same operands, so
    the result is bit-identical to the row-by-row recurrence. Non-finite
    input is rejected: NaN would make the minimum depend on operand order.

    A diagonal is stored as an [n + 1, k] array indexed by row i, then by
    series, and ``a`` and the reversed ``b`` are laid out the same way, so
    the cells of rows lo..hi are one contiguous block. Each NumPy step then
    runs one inner loop over all (hi - lo + 1)·k cells; with the series
    first, a diagonal's cells would be k strided rows, one short loop each.
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
    k, m = rows.shape
    n = a.size
    # Row i of a diagonal-d buffer holds D[i, d - i] for every series; rows 0
    # and d are the D[0, d] and D[d, 0] borders, which stay inf.
    prev2, prev, cur = (np.full((n + 1, k), np.inf) for _ in range(3))
    # Diagonal 2 is D[1, 1] = cost + min(D[0, 0], inf, inf) = cost + 0.0,
    # which is the cost itself, so D[0, 0] = 0 is never stored.
    prev[1] = np.abs(a[0] - rows[:, 0])
    a_rows = np.repeat(a, k).reshape(n, k)
    b_rev = np.ascontiguousarray(rows[:, ::-1].T)
    costs = np.empty((n, k))
    for d in range(3, n + m + 1):
        lo, hi = max(1, d - m), min(n, d - 1)
        out = cur[lo:hi + 1]
        np.minimum(prev2[lo - 1:hi], prev[lo - 1:hi], out=out)
        np.minimum(out, prev[lo:hi + 1], out=out)
        # b[:, j - 1] for j = d - i is b_rev[m - d + i].
        cost = costs[:hi - lo + 1]
        np.subtract(a_rows[lo - 1:hi], b_rev[m - d + lo:m - d + hi + 1], out=cost)
        np.abs(cost, out=cost)
        np.add(cost, out, out=out)
        prev2, prev, cur = prev, cur, prev2
    dist = prev[n]
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
        return asdict(self)


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
        raise ConfigError(f"margin cannot be negative, got {margin}")
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
