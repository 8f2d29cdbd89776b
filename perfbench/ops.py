"""The two operations users run, driven through dbdiag's public API from CSV
on disk, and the checks every timed operation must pass.

``fit`` is what ``dbdiag train`` does and ``diagnose`` what ``dbdiag report``
does. Both call dbdiag through module attributes (``data.load_metrics``,
``detector.train`` ...) so the tracer in ``spans.py`` can wrap them from
outside. A check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import time
import traceback
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from dbdiag import data, detector, report
from dbdiag.data import MetricFrame
from dbdiag.synth import TruthLabel, evaluate_detection, generate

TOP_GROUPS = 3          # every labelled truth must fall in the top-3 groups
MSE_TOLERANCE = 1e-12


class Tally:
    """Operations attempted and failed. An operation fails when it raises or
    its check reports a problem."""

    def __init__(self, quiet: bool = False):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.quiet = quiet

    def check(self, label: str, operation) -> bool:
        """Run ``operation`` (returns a list of problems); True when it passed."""
        self.attempted += 1
        try:
            problems = operation()
        except Exception as exc:
            if not self.quiet:
                traceback.print_exc()
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]
        return not problems


@dataclass(frozen=True)
class Paths:
    root: str

    @property
    def stats(self) -> str:
        return os.path.join(self.root, "stats.csv")

    @property
    def events(self) -> str:
        return os.path.join(self.root, "events.csv")

    @property
    def labels(self) -> str:
        return os.path.join(self.root, "labels.json")

    @property
    def model(self) -> str:
        return os.path.join(self.root, "model.json")

    @property
    def report_dir(self) -> str:
        return os.path.join(self.root, "report")


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_scenario(spec, paths: Paths):
    """Generate a scenario and write it as ``dbdiag gen`` would."""
    scenario = generate(spec)
    os.makedirs(paths.root, exist_ok=True)
    data.write_metrics(paths.stats, scenario.stats)
    data.write_metrics(paths.events, scenario.events)
    with open(paths.labels, "w") as fh:
        json.dump([lab.to_dict() for lab in scenario.labels], fh, sort_keys=True)
    return scenario


def read_labels(path: str) -> tuple[TruthLabel, ...]:
    with open(path) as fh:
        return tuple(TruthLabel(**row) for row in json.load(fh))


def train_config(workload) -> detector.TrainConfig:
    """The fit's settings. The training seed stays at the CLI's default, 0:
    the workload seed only picks the data, so a seed's network initialisation
    does not move test_mse or the periods a diagnosis finds."""
    return detector.TrainConfig(architecture=workload.architecture,
                                max_epochs=workload.epochs,
                                patience=workload.epochs, seed=0)


def fit(paths: Paths, config: detector.TrainConfig):
    """CSV -> train() -> model file. Returns (seconds, (TrainResult, frame))."""
    start = time.perf_counter()
    frame = data.load_metrics(paths.stats)
    result = detector.train(frame, config)
    detector.save_model(result.detector, paths.model)
    return time.perf_counter() - start, (result, frame)


def diagnose(paths: Paths):
    """Model file + CSVs -> report bundle on disk. Returns (seconds, None)."""
    start = time.perf_counter()
    det = detector.load_model(paths.model)
    stats = data.load_metrics(paths.stats)
    events = data.load_metrics(paths.events, kind="event")
    scores = det.score_frame(stats)
    model_info = {
        "digest": detector.model_digest(paths.model),
        "architecture": det.architecture,
        "window_steps": det.window_steps,
        "features": list(det.feature_names),
    }
    body, charts = report.build_report(scores, stats, events, model_info,
                                       report.ReportConfig())
    report.write_report(paths.report_dir, body, charts)
    return time.perf_counter() - start, None


def rescore_problems(result, frame: MetricFrame, config, reloaded) -> list[str]:
    """The reloaded model must re-score the test windows bit-identically."""
    normed = MetricFrame(frame.metric_names, frame.timestamps,
                         reloaded.norm.apply(frame.values), frame.kind)
    windows = data.make_windows(normed, config.window_steps, config.stride)
    test = data.split_windows(windows, config.split).test
    again = reloaded.score_windows(test, normalized=True)
    if not (np.array_equal(again.scores, result.test_scores.scores)
            and np.array_equal(again.window_starts, result.test_scores.window_starts)):
        return ["reloaded model does not re-score the test windows bit-identically"]
    return []


def check_fit(fitted, config, model_path: str) -> list[str]:
    """test_mse is finite and the mean test score; the saved model re-scores."""
    result, frame = fitted
    problems = []
    mean = float(result.test_scores.scores.mean())
    if not math.isfinite(result.test_mse):
        problems.append(f"test_mse is not finite: {result.test_mse}")
    elif abs(result.test_mse - mean) > MSE_TOLERANCE:
        problems.append(f"test_mse {result.test_mse!r} differs from the mean "
                        f"test score {mean!r}")
    if result.epochs_run != config.max_epochs:
        problems.append(f"ran {result.epochs_run} epochs, expected {config.max_epochs}")
    return problems + rescore_problems(result, frame, config,
                                       detector.load_model(model_path))


def bundle_digests(report_dir: str) -> dict[str, str]:
    """sha256 of report.json, report.txt and every chart, by relative path."""
    names = ["report.json", "report.txt"]
    names += [f"charts/{n}" for n in sorted(os.listdir(os.path.join(report_dir, "charts")))]
    return {name: sha256_file(os.path.join(report_dir, name)) for name in names}


def check_diagnosis(report_dir: str, labels, reference: dict | None) -> list[str]:
    """The top groups cover every labelled truth (skipped when ``labels`` is
    None) and the bundle's bytes match the reference run's."""
    problems = []
    with open(os.path.join(report_dir, "report.json")) as fh:
        body = json.load(fh)
    if labels is not None:
        groups = [SimpleNamespace(start=data.iso_to_minute(row["start"]),
                                  end=data.iso_to_minute(row["end"]), rank=row["rank"])
                  for row in body["anomaly_periods"][:TOP_GROUPS]]
        hits = evaluate_detection(labels, groups)
        if not hits["all_hit"]:
            missed = sum(1 for row in hits["truths"] if row["hit_rank"] is None)
            problems.append(f"top {TOP_GROUPS} periods miss {missed} of "
                            f"{len(labels)} labelled anomalies")
    digests = bundle_digests(report_dir)
    charts = {name.split("/", 1)[1]: sha for name, sha in digests.items()
              if name.startswith("charts/")}
    if charts != body["manifest"]:
        problems.append("chart files do not match the report manifest")
    if reference is not None and digests != reference:
        changed = sorted(n for n in set(digests) | set(reference)
                         if digests.get(n) != reference.get(n))
        problems.append(f"report bundle differs from the first run: {', '.join(changed)}")
    return problems


def gate_fit(fitted, config, model_path: str) -> Tally:
    """Feed deliberately corrupted fit outputs to the checks; all must fail."""
    result, frame = fitted
    gate = Tally(quiet=True)

    def perturbed_bias():
        # The output layer's bias feeds every reconstruction directly; a
        # hidden weight could sit behind a ReLU that is never active.
        reloaded = detector.load_model(model_path)
        bias = next(p for name, p in reloaded.network.parameters().items()
                    if name.endswith("dense_out.bias"))
        bias += 1e-9
        return rescore_problems(result, frame, config, reloaded)

    gate.check("perturbed output bias", perturbed_bias)
    flipped = model_path + ".tampered"
    with open(model_path, "rb") as fh:
        raw = bytearray(fh.read())
    # The leading digit of the first stored parameter: flipping its low bit
    # (0<->1, 2<->3 ...) always changes the value, where a trailing digit
    # past float64 precision might not.
    at = raw.index(b"[", raw.index(b'"state"'))
    at += next(i for i, b in enumerate(raw[at:]) if chr(b).isdigit())
    raw[at] ^= 0x01
    with open(flipped, "wb") as fh:
        fh.write(raw)
    try:
        gate.check("flipped model byte",
                   lambda: check_fit((result, frame), config, flipped))
    finally:
        os.remove(flipped)
    return gate


def gate_diagnosis(report_dir: str, labels, reference: dict) -> Tally:
    """Feed a report.json with one changed byte to the check; it must fail."""
    gate = Tally(quiet=True)
    copy = report_dir + ".tampered"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(report_dir, copy)
    try:
        path = os.path.join(copy, "report.json")
        with open(path, "rb") as fh:
            raw = fh.read()
        at = raw.index(b'"sigma_k": ') + len(b'"sigma_k": ')
        with open(path, "wb") as fh:
            fh.write(raw[:at] + bytes([raw[at] ^ 0x07]) + raw[at + 1:])  # 3.0 -> 4.0
        gate.check("flipped report byte",
                   lambda: check_diagnosis(copy, labels, reference))
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    return gate
