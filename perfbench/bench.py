"""The dbdiag benchmark: set-up, timed rounds, checks and the result line.

A run is ``ROUNDS`` rounds (one with ``--trace 1``). In each round this
process sets up: it generates the workload's scenario from ``--seed`` and
writes it as CSV, and for the report workloads it also fits and saves the
model that gets scored. A child process then runs the round's timed phase
for its share of ``--seconds`` (time an earlier round left unused carries
over), so the largest child's peak resident memory is the timed phase's
own. Fit workloads follow each fit with a diagnosis of the fitted model;
report workloads repeat the diagnosis and take ``train_s`` from their
set-up fits. Every operation's output is checked.

Times are scaled to a fixed host speed: a reference block (``reference.py``)
runs just before and after every set-up and every timed operation, and each
wall time is multiplied by ``REFERENCE_BLOCK_S`` over the mean of its two
blocks. The host's speed swings by up to a factor of two from one minute to
the next; the blocks swing with it, so scaling cancels most of the swing.
The context line keeps the wall times and every block's time.

With ``--trace 1`` the child alternates traced and untraced runs of the
workload's own operation: the traced ones give the per-layer metrics, the
untraced ones the tracing overhead. Per-layer times are wall times, not
scaled. Metric names and units come from
BENCHMARK.json. The last line of standard output is the result; the line
before it records the environment, the inputs, every sample, the exact
counts and the output digests. Both also go to ``.perfbench/results/``.
Exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from ops import (Paths, Tally, bundle_digests, check_diagnosis, check_fit, diagnose,
                 fit, gate_diagnosis, gate_fit, read_labels, sha256_file,
                 train_config, write_scenario)
from reference import Gauge
from spans import Tracer, instrument
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
ROUNDS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", help=argparse.SUPPRESS)  # work dir of the child
    return parser.parse_args(argv)


def timed(tally: Tally, label: str, operation, check, tracer=None, op=None):
    """Run ``operation`` (returns seconds and its output), traced when a
    tracer is given, then ``check(output)`` untraced. Returns (seconds,
    output, counts) when both passed, else None."""
    done = {}

    def attempt():
        gc.collect()    # start every operation without the last one's garbage
        restore = None
        if tracer is not None:
            tracer.begin(op)
            restore = instrument(tracer)
        try:
            seconds, output = operation()
        finally:
            if restore is not None:
                restore()
                done["counts"] = dict(tracer.end())
        done.update(seconds=seconds, output=output)
        return check(output)

    if not tally.check(label, attempt):
        return None
    return done["seconds"], done["output"], done.get("counts")


class Phase:
    """The child's side of a round: timed loop, checks and gate self-test."""

    def __init__(self, args, workload):
        self.args = args
        self.workload = workload
        self.paths = Paths(args.phase)
        # Fit workloads train for few epochs; their diagnoses only time
        # report_s, so they are checked for reproducible bytes, not coverage.
        self.labels = (read_labels(self.paths.labels)
                       if workload.operation == "diagnose" else None)
        self.config = train_config(workload)
        self.tally = Tally()
        self.problems: list[str] = []
        self.samples = {"train_s": [], "report_s": [], "train_wall_s": [],
                        "report_wall_s": [], "traced_s": [], "untraced_s": []}
        self.test_mse: list[float] = []
        self.counts: dict[int, dict] = {}        # traced op -> its counts
        self.model_digest: str | None = None
        self.report_digests: dict[str, str] | None = None
        self.last_fit = None

    def fit(self, tracer=None, op=None):
        def check(fitted):
            problems = check_fit(fitted, self.config, self.paths.model)
            digest = sha256_file(self.paths.model)
            if self.model_digest is None:
                self.model_digest = digest
            elif digest != self.model_digest:
                problems.append("model file differs from the first fit's")
            return problems

        done = timed(self.tally, "fit", lambda: fit(self.paths, self.config),
                     check, tracer, op)
        if done is not None:
            self.last_fit = done[1]
            self.test_mse.append(done[1][0].test_mse)
        return done

    def diagnose(self, tracer=None, op=None):
        def check(_):
            problems = check_diagnosis(self.paths.report_dir, self.labels,
                                       self.report_digests)
            if self.report_digests is None and not problems:
                self.report_digests = bundle_digests(self.paths.report_dir)
            return problems

        return timed(self.tally, "diagnose", lambda: diagnose(self.paths),
                     check, tracer, op)

    def run(self) -> dict:
        tracer = Tracer() if self.args.trace else None
        if tracer is not None:
            elapsed = self.traced_loop(tracer)
        else:
            steps = [("report_s", self.diagnose)]
            if self.workload.operation == "fit":
                steps = [("train_s", self.fit)] + steps

            gauge = Gauge()
            gauge.begin()

            def one_pass(_):
                for key, step in steps:
                    done = step()
                    factor = gauge.factor()
                    if done is not None:
                        self.samples[key].append(done[0] * factor)
                        self.samples[f"{key[:-2]}_wall_s"].append(done[0])

            elapsed = measure(self.args.seconds, one_pass)
            self.samples["reference_s"] = gauge.blocks
        self.gate()
        layers = self.layer_metrics(tracer) if tracer is not None else None
        digests = {f"report/{k}": v for k, v in (self.report_digests or {}).items()}
        if self.model_digest:
            digests["model.json"] = self.model_digest
        out = {"attempted": self.tally.attempted, "failed": self.tally.failed,
               "problems": self.tally.problems + self.problems,
               "elapsed": elapsed, "samples": self.samples,
               "test_mse": self.test_mse, "digests": digests,
               "windows": self.last_fit[0].detector.training_meta["n_windows"]
               if self.last_fit else None}
        if tracer is not None:
            out["layers"] = layers
            out["counts"] = next(iter(self.counts.values()), {})
            results_path(self.args, "spans").write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent", "op"],
                 "spans": tracer.spans}) + "\n")
        return out

    def traced_loop(self, tracer: Tracer) -> float:
        """The workload's operation, traced and untraced in turn."""
        operation = self.fit if self.workload.operation == "fit" else self.diagnose

        def one_op(op):
            traced = op % 2 == 0
            done = operation(tracer if traced else None, op)
            if done is not None:
                self.samples["traced_s" if traced else "untraced_s"].append(done[0])
                if traced:
                    self.counts[op] = done[2]

        return measure(self.args.seconds, one_op, min_passes=2)

    def gate(self) -> None:
        """Corrupted outputs must be counted as failed by the same checks."""
        gates = []
        if self.last_fit is not None:
            gates.append(gate_fit(self.last_fit, self.config, self.paths.model))
        if self.report_digests is not None:
            gates.append(gate_diagnosis(self.paths.report_dir, self.labels,
                                        self.report_digests))
        if not gates:
            self.problems.append("no passing output to run the gate self-test on")
        for gate in gates:
            if gate.attempted == 0 or gate.failed != gate.attempted:
                self.problems.append("gate self-test: a corrupted output passed its check")

    def layer_metrics(self, tracer: Tracer) -> dict[str, float]:
        """Per-layer metrics as means over the traced operations."""
        if not self.counts or not self.samples["untraced_s"]:
            self.problems.append("trace run needs a passing traced and untraced operation")
            return {}
        ops = sorted(self.counts)
        first = self.counts[ops[0]]
        for op in ops[1:]:
            if self.counts[op] != first:
                self.problems.append(f"counts of operation {op} differ from "
                                     f"operation {ops[0]}'s")
        totals = tracer.totals()
        traced = statistics.median(self.samples["traced_s"])
        untraced = statistics.median(self.samples["untraced_s"])
        values = {"trace.op_s": traced,
                  "trace.overhead_pct": 100.0 * (traced - untraced) / untraced}
        for name in metric_specs("per_layer"):
            if name in values:
                continue
            if name == "nn.dense.gflop":
                values[name] = first.get("nn.dense.flop", 0) / 1e9
            elif name.endswith("_s"):
                span, column = ((name[:-len("_self_s")], 1) if name.endswith("_self_s")
                                else (name[:-len("_s")], 0))
                per_op = totals.get(span, {})
                values[name] = sum(per_op[op][column] for op in ops
                                   if op in per_op) / len(ops)
            else:
                values[name] = first.get(name, 0)
        return values


def measure(seconds: float, one_pass, min_passes: int = 1) -> float:
    """Call ``one_pass(i)`` for i = 0, 1, ... until, at the mean pass time
    so far, one more pass would end after ``seconds``; at least
    ``min_passes`` times. Returns the seconds it took. Stopping before the
    deadline, not after it, keeps a run's length close to ``--seconds``
    even when one pass takes a good share of it."""
    start = time.perf_counter()
    passes = 0
    while True:
        one_pass(passes)
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= min_passes and elapsed * (passes + 1) / passes > seconds:
            return elapsed


def metric_specs(kind: str) -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec[kind]}


def results_path(args, what: str) -> Path:
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{what}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def fingerprint() -> str:
    """Digest of the code under test, the benchmark and the BLAS thread count."""
    h = hashlib.sha256(os.environ["OPENBLAS_NUM_THREADS"].encode())
    files = sorted((ROOT / "src" / "dbdiag").rglob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "BENCHMARK.json"]
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def compare_with_earlier_runs(args, record: dict) -> list[str]:
    """Counts and digests must repeat exactly across runs at one seed."""
    path = OUT / "registry" / f"{args.workload}-seed{args.seed}-{fingerprint()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    earlier = json.loads(path.read_text()) if path.exists() else {}
    problems = [f"{key} is {value}, an earlier run at seed {args.seed} had {earlier[key]}"
                for key, value in record.items()
                if key in earlier and earlier[key] != value]
    path.write_text(json.dumps({**earlier, **record}, indent=1, sort_keys=True) + "\n")
    return problems


def set_up(args, workload, paths: Paths, tally: Tally, gauge: Gauge) -> dict | None:
    """Write the scenario; report workloads also fit and save the model.
    Returns the set-up's seconds, scaled by ``gauge`` and as wall seconds,
    its fit (report workloads) and digests."""
    gauge.begin()
    start = time.perf_counter()
    write_scenario(workload.scenario(args.seed), paths)
    wall = {"setup_s": time.perf_counter() - start}
    made = {}
    names = ["stats.csv", "events.csv", "labels.json"]
    if workload.operation == "diagnose":
        config = train_config(workload)
        done = timed(tally, "set-up fit", lambda: fit(paths, config),
                     lambda fitted: check_fit(fitted, config, paths.model))
        if done is None:
            return None
        wall.update(setup_s=wall["setup_s"] + done[0], train_s=done[0])
        made["result"] = done[1][0]
        names.append("model.json")
    factor = gauge.factor()
    made["samples"] = {**{k: v * factor for k, v in wall.items()},
                       **{f"{k[:-2]}_wall_s": v for k, v in wall.items()}}
    made["digests"] = {n: sha256_file(os.path.join(paths.root, n)) for n in names}
    return made


def timed_phase(args, work: Path, seconds: float) -> dict:
    child = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(seconds), "--trace", str(args.trace), "--phase", str(work)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if child.returncode != 0:
        sys.exit(f"perfbench: timed phase exited with {child.returncode}")
    return json.loads(child.stdout.strip().splitlines()[-1])


def run(args, workload) -> int:
    work = OUT / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    paths = Paths(str(work))
    tally = Tally()
    problems: list[str] = []
    samples: dict[str, list[float]] = {}
    gauge = Gauge()
    mse: list[float] = []
    digests: dict[str, str] = {}
    rounds = 1 if args.trace else ROUNDS
    windows = None
    remaining = args.seconds    # a round's unused share carries over to the next
    try:
        for done_rounds in range(rounds):
            made = set_up(args, workload, paths, tally, gauge)
            if made is None:
                return finish(args, tally, tally.problems, {}, {})
            for key, value in made["samples"].items():
                samples.setdefault(key, []).append(value)
            if "result" in made:
                mse.append(made["result"].test_mse)
                windows = made["result"].detector.training_meta["n_windows"]
            phase = timed_phase(args, work, remaining / (rounds - done_rounds))
            remaining = max(remaining - phase["elapsed"], 0.0)
            tally.attempted += phase["attempted"]
            tally.failed += phase["failed"]
            problems += phase["problems"]
            for key, values in phase["samples"].items():
                samples.setdefault(key, []).extend(values)
            mse += phase["test_mse"]
            windows = windows or phase["windows"]
            for name, sha in {**made["digests"], **phase["digests"]}.items():
                if digests.setdefault(name, sha) != sha:
                    problems.append(f"{name} differs between rounds")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    samples.setdefault("reference_s", []).extend(gauge.blocks)

    problems = tally.problems + problems
    samples = {k: v for k, v in samples.items() if v}
    if len(set(mse)) > 1:
        problems.append(f"test_mse differs between fits at one seed: {sorted(set(mse))}")
    counts = phase.get("counts", {})
    problems += compare_with_earlier_runs(args, {
        **{f"sha256 of {k}": v for k, v in digests.items()},
        **{f"count {k}": v for k, v in counts.items()}})

    if args.trace:
        metrics = phase.get("layers") or {}
    elif {"train_s", "report_s"} <= samples.keys() and mse:
        # Each sample is already scaled to the reference host speed
        # (reference.py). Timed-phase samples give means, not medians: the
        # median of a run's few samples jumps with the one or two that a
        # stall lands on. Set-up samples (setup_s, and train_s on report
        # workloads) are three, the first from a fresh process: their median.
        train = statistics.median if workload.operation == "diagnose" else statistics.fmean
        metrics = {"train_s": train(samples["train_s"]),
                   "report_s": statistics.fmean(samples["report_s"]),
                   "setup_s": statistics.median(samples["setup_s"]),
                   "test_mse": mse[0], "peak_mem_mb": peak_mb}
    else:
        metrics = {}
    spec = workload.scenario(args.seed)
    context = {
        "environment": environment(),
        "inputs": {"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace, "rounds": rounds,
                   "operation": workload.operation,
                   "scenario_minutes": spec.duration_minutes,
                   "features": len(spec.features), "events": len(spec.events),
                   "injections": len(spec.injections), "windows": windows,
                   "epochs": workload.epochs, "architecture": workload.architecture,
                   "batch_size": train_config(workload).batch_size},
        "samples": samples, "digests": digests, "counts": counts,
        "problems": problems}
    return finish(args, tally, problems, metrics, context)


def finish(args, tally: Tally, problems: list[str], metrics: dict, context: dict) -> int:
    kind = "per_layer" if args.trace else "end_to_end"
    specs = metric_specs(kind)
    missing = sorted(set(specs) - set(metrics))
    if missing:
        problems = problems + [f"no value for {', '.join(missing)}"]
    correct = not problems and tally.failed == 0
    result = {"correct": correct, "attempted": max(tally.attempted, 1),
              "failed": tally.failed if tally.attempted else 1,
              "metrics": {name: {"value": metrics[name], "unit": specs[name]["unit"]}
                          for name in specs if name in metrics}}
    results_path(args, "run").write_text(
        json.dumps({**context, "result": result}, indent=1) + "\n")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(context, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.phase:
        print(json.dumps(Phase(args, workload).run()))
        return 0
    return run(args, workload)
