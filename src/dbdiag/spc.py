"""Statistical process control over reconstruction scores.

Each feature's score series gets a control chart: center line at the mean,
control limits at k sample standard deviations (ddof=1). Windows whose score
exceeds the upper limit are out of control; runs of flagged windows merge
into anomaly periods that span from the first flagged window's start to the
last flagged window's start plus the window length, so a single bad minute
caught by many overlapping windows reports as one period.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .data import minute_to_iso
from .detector import ScoreSeries
from .errors import ConfigError, DataError

DEFAULT_SIGMA_K = 3.0


@dataclass(frozen=True)
class ControlChart:
    feature: str
    center: float
    sigma: float
    ucl: float
    lcl: float
    k: float

    def to_dict(self) -> dict:
        return asdict(self)


def fit_chart(scores: np.ndarray, feature: str, k: float = DEFAULT_SIGMA_K
              ) -> ControlChart:
    """Control limits from a score sample: CL = mean, UCL/LCL = CL +/- k*s."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ConfigError(f"chart needs a 1-d score series, got shape {scores.shape}")
    if scores.shape[0] < 2:
        raise DataError(f"need at least 2 scores to fit a chart for {feature!r}, "
                        f"got {scores.shape[0]}")
    if not 0.0 < k < np.inf:
        raise ConfigError(f"sigma multiplier must be finite and positive, got {k}")
    if not np.all(np.isfinite(scores)):
        raise DataError(f"non-finite score in the chart sample for {feature!r}")
    center = float(scores.mean())
    sigma = float(scores.std(ddof=1))
    return ControlChart(feature, center, sigma, center + k * sigma,
                        center - k * sigma, k)


def find_out_of_control(scores: np.ndarray, chart: ControlChart) -> np.ndarray:
    """Indices of windows whose score strictly exceeds the upper limit.

    Only the upper side signals: a reconstruction error lower than usual is
    a model doing well, not an anomaly.
    """
    scores = np.asarray(scores, dtype=np.float64)
    return np.nonzero(scores > chart.ucl)[0].astype(np.int64)


@dataclass(frozen=True)
class AnomalyPeriod:
    feature: str
    start: int              # epoch minute of the first flagged window
    end: int                # last flagged window start + window_steps (exclusive)
    peak_score: float
    peak_window_start: int
    rank: int = 0

    @property
    def duration(self) -> int:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "feature": self.feature,
            "start": minute_to_iso(self.start),
            "end": minute_to_iso(self.end),
            "duration_minutes": self.duration,
            "peak_score": self.peak_score,
            "peak_window_start": minute_to_iso(self.peak_window_start),
            "rank": self.rank,
        }


def merge_periods(flagged: np.ndarray, scores: np.ndarray,
                  window_starts: np.ndarray, window_steps: int, feature: str,
                  gap_tolerance: int = 0) -> list[AnomalyPeriod]:
    """Group flagged window indices into ranked anomaly periods.

    Consecutive flagged windows (allowing up to gap_tolerance unflagged
    windows between them) form one period covering first start through last
    start + window_steps. Periods rank by peak score, highest first; ties
    break on earlier start.
    """
    if gap_tolerance < 0:
        raise ConfigError(f"gap_tolerance cannot be negative, got {gap_tolerance}")
    flagged = np.asarray(flagged, dtype=np.int64)
    if flagged.size == 0:
        return []
    runs = np.split(flagged, np.flatnonzero(np.diff(flagged) - 1 > gap_tolerance) + 1)
    periods = []
    for run in runs:
        peak_pos = run[int(np.argmax(scores[run]))]
        periods.append(AnomalyPeriod(
            feature=feature,
            start=int(window_starts[run[0]]),
            end=int(window_starts[run[-1]]) + window_steps,
            peak_score=float(scores[peak_pos]),
            peak_window_start=int(window_starts[peak_pos]),
        ))
    periods.sort(key=lambda p: (-p.peak_score, p.start))
    return [replace(p, rank=i + 1) for i, p in enumerate(periods)]


@dataclass
class DetectionResult:
    charts: dict[str, ControlChart]
    periods: dict[str, list[AnomalyPeriod]]
    flagged: dict[str, np.ndarray]    # out-of-control window indices per feature

    def all_periods(self) -> list[AnomalyPeriod]:
        out = [p for plist in self.periods.values() for p in plist]
        out.sort(key=lambda p: (-p.peak_score, p.start, p.feature))
        return out


def detect(scores: ScoreSeries, k: float = DEFAULT_SIGMA_K, gap_tolerance: int = 0,
           baseline: ScoreSeries | None = None) -> DetectionResult:
    """Chart every feature and extract its anomaly periods.

    Limits come from ``baseline`` scores when given (e.g. a clean reference
    range), which must be of the same window length and features, and from
    the scored series itself otherwise. NaN and inf scores are refused: a NaN
    never exceeds a limit, so it would pass unflagged.
    """
    if baseline is not None and ((baseline.window_steps, baseline.feature_names)
                                 != (scores.window_steps, scores.feature_names)):
        raise DataError(
            f"baseline {baseline.window_steps}-minute windows of "
            f"[{', '.join(baseline.feature_names)}] do not match scored "
            f"{scores.window_steps}-minute windows of [{', '.join(scores.feature_names)}]")
    bad = np.argwhere(~np.isfinite(scores.scores))
    if bad.size:
        i, j = bad[0]
        raise DataError(f"non-finite score {scores.scores[i, j]} for feature "
                        f"{scores.feature_names[j]!r} in window {i} "
                        f"(start {minute_to_iso(scores.window_starts[i])})")
    charts = {}
    periods = {}
    flagged = {}
    for j, name in enumerate(scores.feature_names):
        ref = baseline.scores[:, j] if baseline is not None else scores.scores[:, j]
        chart = fit_chart(ref, name, k)
        charts[name] = chart
        flagged[name] = find_out_of_control(scores.scores[:, j], chart)
        periods[name] = merge_periods(flagged[name], scores.scores[:, j],
                                      scores.window_starts, scores.window_steps,
                                      name, gap_tolerance)
    return DetectionResult(charts, periods, flagged)


@dataclass(frozen=True)
class PeriodGroup:
    """Time-overlapping per-feature periods fused into one reportable event."""

    start: int
    end: int
    features: tuple[str, ...]
    primary_feature: str
    peak_score: float
    rank: int = 0
    members: tuple[AnomalyPeriod, ...] = ()

    def to_dict(self) -> dict:
        return {
            "start": minute_to_iso(self.start),
            "end": minute_to_iso(self.end),
            "duration_minutes": self.end - self.start,
            "features": list(self.features),
            "primary_feature": self.primary_feature,
            "peak_score": self.peak_score,
            "rank": self.rank,
            "periods": [p.to_dict() for p in self.members],
        }


def group_periods(result: DetectionResult) -> list[PeriodGroup]:
    """Merge per-feature periods that overlap in time into ranked groups.

    One underlying incident usually disturbs several metrics at once; the
    group's primary feature is the member with the highest peak score.
    """
    pool = sorted(result.all_periods(), key=lambda p: (p.start, p.end, p.feature))
    groups: list[list[AnomalyPeriod]] = []
    for period in pool:
        if groups and period.start < max(m.end for m in groups[-1]):
            groups[-1].append(period)
        else:
            groups.append([period])

    fused = []
    for members in groups:
        top = max(members, key=lambda p: p.peak_score)
        fused.append(PeriodGroup(
            start=min(p.start for p in members),
            end=max(p.end for p in members),
            features=tuple(sorted({p.feature for p in members})),
            primary_feature=top.feature,
            peak_score=top.peak_score,
            members=tuple(sorted(members, key=lambda p: (-p.peak_score, p.feature))),
        ))
    fused.sort(key=lambda g: (-g.peak_score, g.start))
    return [replace(g, rank=i + 1) for i, g in enumerate(fused)]
