"""Diagnosis reports: detection + cause ranking + charts, reproducibly.

A report bundles the control-chart detection results over a scored series
with wait-event rankings for each anomaly period and SVG charts. The JSON
body is a pure function of its inputs (no wall-clock stamps, no absolute
paths), so rerunning the same model over the same data produces the same
bytes; the embedded model digest plus that property make reports auditable.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass

from .charts import control_chart_svg, overlay_svg
from .data import (MetricFrame, chart_file_name, check_least, finite, json_number,
                   json_text, load_metrics, minute_to_iso)
from .detector import ScoreSeries, load_model, model_digest
from .errors import ConfigError, DataError
from .similarity import match_events
from .spc import DEFAULT_SIGMA_K, detect, group_periods

REPORT_FORMAT = "dbdiag-report"
FORMAT_VERSION = 1


@dataclass
class ReportConfig:
    sigma_k: float = DEFAULT_SIGMA_K
    gap_tolerance: int = 0
    top_periods: int = 5
    top_events: int = 5
    match_margin: int = 0

    def __post_init__(self):
        sigma_k = json_number(self.sigma_k, "sigma_k", ConfigError)
        if not (finite(sigma_k) and sigma_k > 0):
            raise ConfigError(f"sigma_k must be finite and positive, got {self.sigma_k}")
        check_least(self, {"gap_tolerance": 0, "top_periods": 1, "top_events": 1,
                           "match_margin": 0})

    def to_dict(self) -> dict:
        return asdict(self)


def _frame_summary(frame: MetricFrame) -> dict:
    return {
        "first": minute_to_iso(int(frame.timestamps[0])),
        "last": minute_to_iso(int(frame.timestamps[-1])),
        "rows": int(len(frame.timestamps)),
        "metrics": list(frame.metric_names),
    }


def build_report(scores: ScoreSeries, stat_frame: MetricFrame,
                 event_frame: MetricFrame | None, model_info: dict,
                 config: ReportConfig | None = None) -> tuple[dict, dict[str, str]]:
    """Assemble the report dict plus its chart SVGs (name -> svg text).

    ``model_info`` carries provenance of the scoring model (digest,
    architecture, window size); it lands in the metadata verbatim. Event
    matching is skipped when no event frame is supplied.
    """
    config = config or ReportConfig()
    result = detect(scores, k=config.sigma_k, gap_tolerance=config.gap_tolerance)
    groups = group_periods(result)

    charts = {}
    chart_meta = {}
    for j, name in enumerate(scores.feature_names):
        chart = result.charts[name]
        flagged = result.flagged[name]
        fname = chart_file_name(name)
        charts[fname] = control_chart_svg(scores.scores[:, j], scores.window_starts,
                                          chart, flagged)
        chart_meta[name] = {**chart.to_dict(), "flagged_windows": int(flagged.size),
                            "file": fname}

    period_rows = []
    for group in groups[:config.top_periods]:
        row = group.to_dict()
        if event_frame is not None:
            try:
                matches = match_events(stat_frame, group.primary_feature,
                                       event_frame, group.start, group.end,
                                       margin=config.match_margin)
            except DataError as exc:
                row["event_matching_error"] = str(exc)
                matches = []
            row["events_by_shape"] = [m.to_dict()
                                      for m in matches[:config.top_events]]
            by_corr = sorted(matches, key=lambda m: m.rank_correlation)
            row["events_by_correlation"] = [m.event
                                            for m in by_corr[:config.top_events]]
            if matches:
                fname = f"overlay_period{group.rank}.svg"
                top = [m.event for m in matches[:3]]
                end = group.end + config.match_margin
                stat_slice = stat_frame.slice_minutes(group.start, end)
                event_slice = event_frame.slice_minutes(group.start, end)
                series = [(group.primary_feature,
                           stat_slice.column(group.primary_feature))]
                series += [(name, event_slice.column(name)) for name in top]
                charts[fname] = overlay_svg(
                    f"period {group.rank}: {group.primary_feature} vs top wait "
                    f"events", stat_slice.timestamps, series)
                row["overlay_chart"] = fname
        period_rows.append(row)

    report = {
        "format": REPORT_FORMAT,
        "format_version": FORMAT_VERSION,
        "model": dict(model_info),
        "config": config.to_dict(),
        "data": {
            "stats": _frame_summary(stat_frame),
            "events": _frame_summary(event_frame) if event_frame is not None else None,
            "scored_windows": int(len(scores)),
            "window_steps": scores.window_steps,
        },
        "charts": chart_meta,
        "anomaly_periods": period_rows,
        "total_periods_found": len(groups),
        "manifest": {name: hashlib.sha256(svg.encode()).hexdigest()
                     for name, svg in sorted(charts.items())},
    }
    return report, charts


def diagnose(model_path: str, stats_path: str, events_path: str | None = None,
             config: ReportConfig | None = None,
             stride: int = 1) -> tuple[dict, dict[str, str]]:
    """The report and its charts for a saved model over metric CSVs, as
    ``build_report`` assembles them; ``write_report(out_dir, *diagnose(...))``
    writes the bundle ``dbdiag report`` writes. Event matching is skipped
    when no events CSV is given.
    """
    detector = load_model(model_path)
    stats = load_metrics(stats_path)
    events = load_metrics(events_path, kind="event") if events_path else None
    scores = detector.score_frame(stats, stride=stride)
    model_info = {"digest": model_digest(model_path), "architecture": detector.architecture,
                  "window_steps": detector.window_steps,
                  "features": list(detector.feature_names)}
    return build_report(scores, stats, events, model_info, config)


def report_to_json_bytes(report: dict) -> bytes:
    return json_text(report).encode()


def render_text(report: dict) -> str:
    """Terminal-friendly summary of a report dict."""
    lines = []
    model = report.get("model", {})
    lines.append("anomaly diagnosis report")
    lines.append(f"model: {model.get('architecture', '?')} "
                 f"(digest {str(model.get('digest', '?'))[:12]})")
    data = report["data"]
    lines.append(f"data: {data['stats']['rows']} minutes, "
                 f"{data['stats']['first']} .. {data['stats']['last']}, "
                 f"{data['scored_windows']} windows of {data['window_steps']} min")
    k = report["config"]["sigma_k"]
    total = report["total_periods_found"]
    lines.append(f"anomaly periods at {k:g} sigma: {total}")
    for row in report["anomaly_periods"]:
        lines.append("")
        lines.append(f"  rank {row['rank']}: {row['start']} .. {row['end']} "
                     f"({row['duration_minutes']} min)")
        lines.append(f"    features: {', '.join(row['features'])} "
                     f"(primary {row['primary_feature']}, "
                     f"peak {row['peak_score']:.4g})")
        if row.get("events_by_shape"):
            shape_names = ", ".join(m["event"] for m in row["events_by_shape"])
            lines.append(f"    likely waits by shape: {shape_names}")
            lines.append(f"    likely waits by correlation: "
                         f"{', '.join(row['events_by_correlation'])}")
        elif "event_matching_error" in row:
            lines.append(f"    event matching failed: {row['event_matching_error']}")
    if not report["anomaly_periods"]:
        lines.append("  none")
    return "\n".join(lines) + "\n"


def write_report(out_dir: str, report: dict, charts: dict[str, str]) -> list[str]:
    """Write report.txt, charts/ and report.json; returns the paths written.

    A directory that holds an earlier report is reused: the chart files its
    report.json manifest names are removed first, so ``charts/`` ends holding
    exactly the new manifest's charts. A ``charts/`` that holds any file no
    such manifest names is refused by ``check_out_dir``, before anything is
    removed. report.json goes last, and an old one goes before its charts,
    so a write cut short never leaves a manifest that names charts which are
    not on disk.
    """
    chart_dir = os.path.join(out_dir, "charts")
    json_path = os.path.join(out_dir, "report.json")
    present = check_out_dir(out_dir)
    if present:
        os.remove(json_path)
        for name in present:
            os.remove(os.path.join(chart_dir, name))
    os.makedirs(chart_dir, exist_ok=True)
    written = []
    path = os.path.join(out_dir, "report.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_text(report))
    written.append(path)
    for name in sorted(charts):
        path = os.path.join(chart_dir, name)
        with open(path, "wb") as fh:   # the bytes the manifest digests
            fh.write(charts[name].encode())
        written.append(path)
    with open(json_path, "wb") as fh:
        fh.write(report_to_json_bytes(report))
    written.append(json_path)
    return written


def check_out_dir(out_dir: str) -> set[str]:
    """The files in ``out_dir``'s ``charts/``, each named by the manifest of
    the report.json there; ``ConfigError`` if one is not, or if ``out_dir``
    or its ``charts`` is not a directory."""
    chart_dir = os.path.join(out_dir, "charts")
    try:
        present = set(os.listdir(chart_dir))
    except FileNotFoundError:
        return set()
    except NotADirectoryError:
        bad = chart_dir if os.path.isdir(out_dir) else out_dir
        raise ConfigError(f"cannot write the report: {bad} is not a directory") from None
    other = sorted(present - _manifest_names(os.path.join(out_dir, "report.json")))
    if other:
        raise ConfigError(f"{chart_dir} holds {other[0]!r}, which no report.json "
                          f"there names; write the report to an empty or new directory")
    return present


def check_out_files(*paths: str | None) -> None:
    """``ConfigError`` unless a file can be written at each path: its parent
    directory exists and is a directory, and the path names a file, not a
    directory. A None path is an unset optional output and is skipped."""
    for path in paths:
        if path is None:
            continue
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise ConfigError(f"cannot write {path!r}: {parent} is not a directory")
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path!r}: it is a directory")
        if not os.path.basename(path):
            raise ConfigError(f"cannot write {path!r}: it names no file")


def _manifest_names(path: str) -> set[str]:
    """The chart names in the manifest of the report.json at ``path``; none
    when it is missing or is not a report."""
    try:
        with open(path, "rb") as fh:
            manifest = json.load(fh).get("manifest")
    except (OSError, ValueError, AttributeError):
        return set()
    return set(manifest) if isinstance(manifest, dict) else set()
