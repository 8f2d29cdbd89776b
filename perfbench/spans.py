"""Spans and counts around calls into dbdiag, recorded from outside it.

``instrument`` swaps module attributes, class methods and, through a wrapped
``detector.build_network``, the forward/backward methods of every layer
instance built while it is active; the returned function puts the originals
back. Nothing under ``src/`` changes. Layer spans cover training passes only;
an inference forward (``training=False``) is one ``nn.infer.fwd`` span.

Spans stay in memory as ``[name, start, end, parent, op]`` rows; ``parent``
is the index of the enclosing span (or -1) and ``op`` the index of the
operation that caused it. Self time is a span's duration minus its
children's, which in one thread never overlap.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict

import numpy as np

from dbdiag import data, detector, report, similarity
from dbdiag.nn import BatchNorm, Dense, ReLU, TemporalNorm, TemporalNormReverse

LAYER_KINDS = {Dense: "dense", ReLU: "relu", TemporalNorm: "btn",
               TemporalNormReverse: "btn_reverse", BatchNorm: "bn"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: int | None = None      # index of the traced operation; None = off
        self._open: list[int] = []

    def begin(self, op: int) -> None:
        self.op = op
        self.counts = Counter()

    def end(self) -> Counter:
        self.op = None
        return self.counts

    def call(self, name: str, fn, args=(), kwargs=None):
        if self.op is None:
            return fn(*args, **(kwargs or {}))
        index = len(self.spans)
        row = [name, time.perf_counter(), None, self._open[-1] if self._open else -1,
               self.op]
        self.spans.append(row)
        self._open.append(index)
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            row[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` timed as span ``name``; ``count(args, result)`` adds counts."""

        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if count is not None and self.op is not None:
                count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def totals(self) -> dict[str, dict[int, tuple[float, float]]]:
        """name -> op -> (total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(lambda: (0.0, 0.0)))
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            total, self_s = out[name][op]
            out[name][op] = (total + end - start, self_s + end - start - child[i])
        return out


def _wrap_layer(tracer: Tracer, layer, kind: str) -> None:
    forward, backward = layer.forward, layer.backward
    flops = 0

    def traced_forward(x, training=False):
        nonlocal flops
        if not training or tracer.op is None:
            return forward(x, training=training)
        if kind == "dense":
            flops = 2 * x.shape[0] * layer.n_in * layer.n_out
            tracer.counts["nn.dense.flop"] += flops
        return tracer.call(f"nn.{kind}.fwd", forward, (x,), {"training": True})

    def traced_backward(grad):
        if tracer.op is None:
            return backward(grad)
        if kind == "dense":
            tracer.counts["nn.dense.flop"] += 2 * flops   # weight and input grads
        return tracer.call(f"nn.{kind}.bwd", backward, (grad,))

    layer.forward, layer.backward = traced_forward, traced_backward


def _wrap_network(tracer: Tracer, network) -> None:
    forward = network.forward

    def traced_forward(x, training=False):
        if tracer.op is None:
            return forward(x, training=training)
        if training:
            tracer.counts["detector.batches"] += 1
            return forward(x, training=True)
        tracer.counts["detector.windows_scored"] += x.shape[0]
        return tracer.call("nn.infer.fwd", forward, (x,), {"training": False})

    network.forward = traced_forward
    for layer in network.layers:
        kind = LAYER_KINDS.get(type(layer))
        if kind is not None:
            _wrap_layer(tracer, layer, kind)


def instrument(tracer: Tracer):
    """Wrap dbdiag's entry points; returns a function that restores them."""
    saved = []

    def patch(owner, attr, name, count=None):
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, count))

    def add(key, amount):
        tracer.counts[key] += amount

    build_network = detector.build_network

    def traced_build(*args, **kwargs):
        network = build_network(*args, **kwargs)
        _wrap_network(tracer, network)
        return network

    saved.append((detector, "build_network", build_network))
    detector.build_network = traced_build

    patch(data, "load_metrics", "data.load_metrics",
          lambda a, r: add("data.rows_loaded", len(r.timestamps)))
    patch(detector, "make_windows", "data.make_windows",
          lambda a, r: add("data.window_bytes", r.windows.nbytes))
    patch(detector, "train", "detector.train",
          lambda a, r: add("detector.epochs", r.epochs_run))
    patch(detector.Detector, "score_frame", "detector.score_frame")
    patch(detector, "load_model", "detector.load_model")
    patch(detector, "save_model", "detector.save_model")
    patch(detector.Adam, "step", "nn.adam.step",
          lambda a, r: add("nn.adam.steps", 1))
    patch(report, "build_report", "report.build_report")
    patch(report, "write_report", "report.write_report",
          lambda a, r: add("report.bytes_written", sum(os.path.getsize(p) for p in r)))
    patch(report, "detect", "spc.detect")
    patch(report, "group_periods", "spc.group_periods",
          lambda a, r: add("spc.periods", len(r)))
    patch(report, "match_events", "similarity.match_events")
    patch(report, "control_chart_svg", "charts.control_chart_svg",
          lambda a, r: add("charts.svg_bytes", len(r.encode())))
    patch(report, "overlay_svg", "charts.overlay_svg",
          lambda a, r: add("charts.svg_bytes", len(r.encode())))
    patch(similarity, "dtw_distance", "similarity.dtw",
          lambda a, r: (add("similarity.dtw_calls", 1),
                        add("similarity.dtw_cells", np.size(a[0]) * np.size(a[1]))))
    patch(similarity, "pearson", "similarity.pearson")

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore
