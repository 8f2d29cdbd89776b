"""The benchmark's span wrappers and correctness gates against dbdiag.

``perfbench/spans.py`` times dbdiag by replacing module attributes, class
methods and layer methods by name from outside ``src/``. Running its
``instrument`` around a tiny fit and a tiny diagnosis here makes a renamed
entry point fail in the test suite, not only when the benchmark runs. The
benchmark's fit check and its "perturbed output bias" gate rest on two facts
about a saved model, checked here on a small fit: it re-scores the test
windows bit for bit, and a 1e-9 change to its output bias changes that
re-score. The benchmark's diagnosis keeps its own copy of the library's
steps, so it is checked here to write the bundle ``dbdiag report`` writes.
"""

import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dbdiag import TrainConfig, data, default_scenario, detector, generate, report, similarity
from dbdiag.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
try:
    import ops
    from spans import Tracer, instrument
finally:
    sys.path.pop(0)


OWNERS = (data, detector, report, similarity, detector.Detector, detector.Adam)
TINY = TrainConfig(architecture="BTN-(8)-(4)-(8*)-BTN*", max_epochs=1, batch_size=64)


def traced(run):
    """``run()`` under ``instrument``; returns its result, the span names and
    the counts, once every patched attribute is back."""
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        tracer.begin(0)
        result = run()
        counts = tracer.end()
    finally:
        restore()
    after = [dict(vars(owner)) for owner in OWNERS]
    for owner, old, new in zip(OWNERS, before, after):
        assert old.keys() == new.keys(), owner
        changed = [key for key in old if old[key] is not new[key]]
        assert changed == [], owner
    return result, {span[0] for span in tracer.spans}, counts


@pytest.mark.parametrize("architecture, kinds", [
    (TINY.architecture, ("btn", "btn_reverse", "dense", "relu")),
    ("BN-(8)-(4)-(8*)-BN*", ("bn", "dense", "relu"))], ids=["btn", "bn"])
def test_spans_cover_a_fit_and_restore_every_attribute(architecture, kinds):
    frame = generate(default_scenario(seed=3, duration_minutes=600)).stats
    config = replace(TINY, architecture=architecture)
    result, names, counts = traced(lambda: detector.train(frame, config))
    assert result.epochs_run == 1
    for kind in kinds:
        assert {f"nn.{kind}.fwd", f"nn.{kind}.bwd"} <= names, kind
    assert {"nn.adam.step", "detector.train", "data.make_windows", "nn.infer.fwd"} <= names
    assert counts["nn.adam.steps"] == counts["detector.batches"] > 0


def test_spans_cover_a_diagnosis_and_count_the_chart_bytes(tmp_path):
    scenario = generate(default_scenario(seed=3, duration_minutes=600))
    model = detector.train(scenario.stats, TINY).detector
    out = str(tmp_path / "report")

    config = report.ReportConfig(sigma_k=2.0)
    bodies = []

    def diagnose():
        scores = model.score_frame(scenario.stats)
        body, charts = report.build_report(scores, scenario.stats, scenario.events, {},
                                           config)
        bodies.append(body)
        return report.write_report(out, body, charts)

    written, names, counts = traced(diagnose)
    assert {"detector.score_frame", "report.build_report", "charts.control_chart_svg",
            "charts.overlay_svg", "similarity.dtw", "report.write_report"} <= names
    # One DTW call per matched period, counting n·k·m cells for its period
    # of n minutes and k wait events of m minutes each (here m = n).
    matched = [row for row in bodies[0]["anomaly_periods"] if row["events_by_shape"]]
    k = len(scenario.events.metric_names)
    minutes = [scenario.stats.slice_minutes(
        data.iso_to_minute(row["start"]),
        data.iso_to_minute(row["end"]) + config.match_margin).timestamps.size
        for row in matched]
    assert counts["similarity.dtw_calls"] == len(matched) > 0
    assert counts["similarity.dtw_cells"] == sum(n * k * n for n in minutes)
    svgs = [path for path in written if path.endswith(".svg")]
    assert any(os.path.basename(path).startswith("overlay_") for path in svgs)
    assert counts["charts.svg_bytes"] == sum(os.path.getsize(path) for path in svgs)
    assert counts["report.bytes_written"] == sum(os.path.getsize(path) for path in written)


def test_the_benchmark_diagnosis_writes_the_library_report(tmp_path):
    """``ops.diagnose``, ``write_report(dir, *diagnose(...))`` and ``dbdiag
    report`` write the same bundle, byte for byte."""
    paths = ops.Paths(str(tmp_path / "bench"))
    ops.write_scenario(default_scenario(seed=3, duration_minutes=600), paths)
    ops.fit(paths, replace(TINY, max_epochs=2))
    ops.diagnose(paths)
    reference = ops.bundle_digests(paths.report_dir)
    assert any(name.startswith("charts/overlay_") for name in reference)
    library, cli = str(tmp_path / "library"), str(tmp_path / "cli")
    report.write_report(library, *report.diagnose(paths.model, paths.stats, paths.events))
    assert main(["report", "--model", paths.model, "--stats", paths.stats,
                 "--events", paths.events, "--out-dir", cli, "--quiet"]) == 0
    for out in (library, cli):
        assert ops.bundle_digests(out) == reference
        assert ops.check_diagnosis(out, None, reference) == []


def test_a_saved_model_rescores_bit_for_bit_and_sees_a_tiny_bias_change(tmp_path):
    frame = generate(default_scenario(seed=3, duration_minutes=600)).stats
    config = TrainConfig(architecture="BTN-(8)-(4)-(8*)-BTN*", max_epochs=2,
                         batch_size=64)
    result = detector.train(frame, config)
    path = str(tmp_path / "model.json")
    detector.save_model(result.detector, path)
    reloaded = detector.load_model(path)

    def rescore():
        normed = replace(frame, values=reloaded.norm.apply(frame.values))
        windows = data.make_windows(normed, config.window_steps, config.stride)
        test = data.split_windows(windows, config.split).test
        return reloaded.score_windows(test, normalized=True).scores

    assert np.array_equal(rescore(), result.test_scores.scores)
    bias = next(value for name, value in reloaded.network.parameters().items()
                if name.endswith("dense_out.bias"))
    assert bias.dtype == np.float64
    bias += 1e-9
    assert not np.array_equal(rescore(), result.test_scores.scores)
