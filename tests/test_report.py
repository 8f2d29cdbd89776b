"""Diagnosis report assembly, rendering, and determinism."""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from dbdiag import ReportConfig, build_report, render_text, write_report
from dbdiag.charts import control_chart_svg, overlay_svg
from dbdiag.errors import ConfigError
from dbdiag.report import report_to_json_bytes
from dbdiag.spc import fit_chart


@pytest.fixture(scope="module")
def built(tiny_run):
    scenario = tiny_run.scenario
    det = tiny_run.result.detector
    scores = det.score_frame(scenario.stats)
    model_info = {"digest": "0" * 64, "architecture": det.architecture,
                  "window_steps": det.window_steps,
                  "features": list(det.feature_names)}
    report, charts = build_report(scores, scenario.stats, scenario.events,
                                  model_info)
    return scenario, scores, model_info, report, charts


class TestCharts:
    def test_control_chart_is_deterministic(self, rng):
        scores = rng.normal(1.0, 0.1, 80)
        starts = np.arange(80, dtype=np.int64)
        chart = fit_chart(scores, "f")
        flagged = np.array([3, 4], dtype=np.int64)
        a = control_chart_svg(scores, starts, chart, flagged)
        b = control_chart_svg(scores, starts, chart, flagged)
        assert a == b

    def test_control_chart_marks_flagged_windows(self, rng):
        scores = rng.normal(1.0, 0.1, 40)
        chart = fit_chart(scores, "f")
        svg = control_chart_svg(scores, np.arange(40, dtype=np.int64), chart,
                                np.array([5, 9, 11], dtype=np.int64))
        assert svg.count("<circle") == 3
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_overlay_renders_every_series(self, rng):
        minutes = np.arange(60, dtype=np.int64)
        svg = overlay_svg("spike window", minutes,
                          [("sessions", rng.normal(size=60)),
                           ("log_file_sync", rng.normal(size=60))])
        assert "sessions" in svg and "log_file_sync" in svg


class TestBuildReport:
    def test_structure(self, built):
        _, scores, model_info, report, charts = built
        assert report["format"] == "dbdiag-report"
        assert report["model"]["architecture"] == model_info["architecture"]
        assert set(report["charts"]) == set(scores.feature_names)
        assert report["total_periods_found"] >= len(report["anomaly_periods"])
        for path in report["manifest"]:
            assert not os.path.isabs(path)

    def test_manifest_hashes_match_the_charts(self, built):
        *_, report, charts = built
        for name, svg in charts.items():
            digest = hashlib.sha256(svg.encode()).hexdigest()
            assert report["manifest"][name] == digest

    def test_periods_reference_emitted_charts(self, built):
        *_, report, charts = built
        for group in report["anomaly_periods"]:
            if "overlay_chart" in group:
                assert group["overlay_chart"] in charts

    def test_event_rankings_carry_both_orders(self, built):
        *_, report, _ = built
        for group in report["anomaly_periods"]:
            if group.get("events_by_shape"):
                assert group["events_by_correlation"]
                assert group["events_by_shape"][0]["rank_dtw"] == 1

    def test_byte_determinism(self, built):
        scenario, scores, model_info, report, _ = built
        again, _ = build_report(scores, scenario.stats, scenario.events,
                                model_info)
        assert report_to_json_bytes(report) == report_to_json_bytes(again)

    def test_no_generation_time_metadata(self, built):
        # byte determinism (above) is the hard guarantee; this guards the
        # obvious regression of stamping "now" into the metadata
        *_, report, _ = built
        suspect = {"created", "created_at", "generated", "generated_at",
                   "timestamp", "time", "now"}
        assert not (suspect & set(report))
        assert not (suspect & set(report["model"]))

    def test_works_without_events(self, built):
        scenario, scores, model_info, *_ = built
        report, charts = build_report(scores, scenario.stats, None, model_info)
        for group in report["anomaly_periods"]:
            assert "events_by_shape" not in group or not group["events_by_shape"]

    def test_non_finite_events_become_a_matching_error(self, built):
        scenario, scores, model_info, *_ = built
        values = scenario.events.values.copy()
        values[:, 0] = np.nan
        events = dataclasses.replace(scenario.events, values=values)
        report, _ = build_report(scores, scenario.stats, events, model_info)
        assert report["anomaly_periods"]
        for group in report["anomaly_periods"]:
            assert "NaN or inf" in group["event_matching_error"]
            assert group["events_by_shape"] == []

        def reject(token):
            raise AssertionError(f"report.json holds {token}")

        json.loads(report_to_json_bytes(report), parse_constant=reject)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ReportConfig(sigma_k=0.0)
        with pytest.raises(ConfigError):
            ReportConfig(top_periods=0)


class TestRenderAndWrite:
    def test_text_rendering_mentions_the_periods(self, built):
        *_, report, _ = built
        text = render_text(report)
        assert "anomaly" in text.lower()
        for group in report["anomaly_periods"]:
            assert group["start"] in text

    def test_write_report_emits_all_files(self, built, tmp_path):
        *_, report, charts = built
        out = str(tmp_path / "report")
        written = write_report(out, report, charts)
        names = {os.path.relpath(p, out) for p in written}
        assert "report.json" in names
        assert "report.txt" in names
        assert all(os.path.exists(p) for p in written)
        on_disk = json.loads(open(os.path.join(out, "report.json")).read())
        assert on_disk["format"] == "dbdiag-report"
