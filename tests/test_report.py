"""Diagnosis report assembly, rendering, and determinism."""

import dataclasses
import hashlib
import json
import os
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest

from dbdiag import ReportConfig, build_report, charts, render_text, write_report
from dbdiag.charts import control_chart_svg, overlay_svg
from dbdiag.errors import ConfigError
from dbdiag.report import chart_file_name, report_to_json_bytes
from dbdiag.spc import fit_chart

# values where a fast formatting path could go wrong: signs, -0.0, ties,
# rounding up to four integer digits, huge, subnormal and non-finite values
ADVERSARIAL = [-0.0, 0.0, -3.2, -0.004, 0.005, 0.015, 0.125, 0.375, 9.995,
               99.995, 999.994999, 999.995, 1000.0, 12345.678, 1e300, 1e308,
               -1e308, 5e-324, float("nan"), float("inf"), float("-inf")]


def oracle_points(xs, ys):
    """The row-by-row point formatting that ``charts._points`` replaced."""
    return " ".join(map("{:.2f},{:.2f}".format, xs.tolist(), ys.tolist()))


def fixed_chart_inputs():
    """A 300-window score series built from exact arithmetic only."""
    i = np.arange(300)
    scores = (i * 37 % 101) / 16.0 + np.where(i % 97 == 5, 20.0, 0.0)
    chart = fit_chart(scores, "cpu_used")
    return scores, 28_000_000 + i, chart, np.flatnonzero(scores > chart.ucl)


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

    def test_a_constant_series_charts_as_well_formed_svg(self):
        """Equal scores and limits give a zero value span, which the chart
        scales as a span of one around the value."""
        scores = np.full(40, 0.25)
        chart = fit_chart(scores, "f")
        assert chart.lcl == chart.center == chart.ucl == 0.25
        svg = control_chart_svg(scores, np.arange(40, dtype=np.int64), chart,
                                np.array([], dtype=np.int64))
        root = ET.fromstring(svg)
        assert "nan" not in svg and "inf" not in svg
        line = root.find("{http://www.w3.org/2000/svg}polyline")
        ys = {float(point.split(",")[1]) for point in line.get("points").split()}
        assert len(ys) == 1 and 0 < ys.pop() < float(root.get("height"))

    def test_overlay_renders_every_series(self, rng):
        minutes = np.arange(60, dtype=np.int64)
        svg = overlay_svg("spike window", minutes,
                          [("sessions", rng.normal(size=60)),
                           ("log_file_sync", rng.normal(size=60))])
        assert "sessions" in svg and "log_file_sync" in svg


class TestPoints:
    def test_adversarial_values_match_the_oracle(self):
        values = np.array(ADVERSARIAL)
        assert charts._points(values, values[::-1]) == oracle_points(values, values[::-1])
        for v in ADVERSARIAL:
            point = np.array([v])
            assert charts._points(point, point) == oracle_points(point, point), v

    def test_one_point_and_none(self):
        assert charts._points(np.array([64.0]), np.array([1.005])) == "64.00,1.00"
        assert charts._points(np.array([]), np.array([])) == ""

    def test_random_values_and_every_tie_below_999(self):
        values = np.random.default_rng(5).uniform(0.0, 999.0, 300_000)
        fives = np.arange(199_800) * 0.005        # every multiple of 0.005
        eighths = np.arange(7_992) * 0.125        # exact binary ties
        for v in (values, fives, eighths, -fives):
            assert charts._points(v[0::2], v[1::2]) == oracle_points(v[0::2], v[1::2])

    def test_full_charts_match_the_oracle(self, monkeypatch, rng):
        scores, starts, chart, flagged = fixed_chart_inputs()
        series = [("cpu_used", scores[:120]), ("log_file_sync", rng.normal(size=120)),
                  ("flat", np.zeros(120))]
        fast = (control_chart_svg(scores, starts, chart, flagged),
                overlay_svg("period 1", starts[:120], series))
        monkeypatch.setattr(charts, "_points", oracle_points)
        slow = (control_chart_svg(scores, starts, chart, flagged),
                overlay_svg("period 1", starts[:120], series))
        assert fast == slow

    def test_pinned_chart_digest(self):
        svg = control_chart_svg(*fixed_chart_inputs())
        assert svg.count("<circle") == 4
        assert hashlib.sha256(svg.encode()).hexdigest() == (
            "d8e636b8e21fe54e5594771fffb31a00c0cf3b20a3a2d257626e4063d03c8f89")


class TestChartNames:
    def test_plain_names_keep_their_file_names(self):
        assert chart_file_name("cpu_used") == "chart_cpu_used.svg"
        assert chart_file_name("cpu&io") == "chart_cpu&io.svg"

    def test_slash_and_percent_are_encoded(self):
        assert chart_file_name("cpu/used") == "chart_cpu%2Fused.svg"
        assert chart_file_name("50%") == "chart_50%25.svg"

    def test_no_two_names_share_a_file(self):
        names = ["a/b", "a%2Fb", "a%b", "a%25b", "a%00b", "a%2F", "a/"]
        assert len({chart_file_name(n) for n in names}) == len(names)

    def test_chart_text_is_escaped_as_saxutils_does(self):
        for text in ("cpu_used", "cpu&io", "a<b>", "&amp;", "<&>>&<", ""):
            assert charts._escape(text) == escape(text), text

    def test_charts_of_odd_names_are_well_formed_xml(self, built):
        scenario, scores, model_info, *_ = built
        odd = {scores.feature_names[0]: "cpu&io", scores.feature_names[1]: "a<b>"}
        names = tuple(odd.get(n, n) for n in scores.feature_names)
        stats = dataclasses.replace(
            scenario.stats,
            metric_names=tuple(odd.get(n, n) for n in scenario.stats.metric_names))
        events = dataclasses.replace(
            scenario.events, metric_names=("x&y",) + scenario.events.metric_names[1:])
        report, svgs = build_report(dataclasses.replace(scores, feature_names=names),
                                    stats, events, model_info, ReportConfig(sigma_k=2.0))
        assert {"chart_cpu&io.svg", "chart_a<b>.svg"} <= set(svgs)
        assert any(name.startswith("overlay_") for name in svgs)
        titles = {name: ET.fromstring(svg).find("{http://www.w3.org/2000/svg}text").text
                  for name, svg in svgs.items()}
        assert titles["chart_cpu&io.svg"].startswith("cpu&io reconstruction score")
        assert titles["chart_a<b>.svg"].startswith("a<b> reconstruction score")


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

    @pytest.mark.parametrize("k", [float("nan"), float("inf")])
    def test_sigma_k_must_be_finite(self, k):
        with pytest.raises(ConfigError, match="sigma_k must be finite"):
            ReportConfig(sigma_k=k)


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
        assert os.path.relpath(written[-1], out) == "report.json"

    def test_a_failed_chart_write_leaves_no_manifest(self, built, tmp_path):
        *_, report, svgs = built
        out = str(tmp_path / "report")
        with pytest.raises(FileNotFoundError):
            write_report(out, report, {**svgs, "missing/dir.svg": "<svg/>"})
        assert not os.path.exists(os.path.join(out, "report.json"))
