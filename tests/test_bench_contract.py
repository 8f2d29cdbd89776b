"""The benchmark's span wrappers against the entry points they wrap.

``perfbench/spans.py`` times dbdiag by replacing module attributes, class
methods and layer methods by name from outside ``src/``. Running its
``instrument`` around a tiny fit here makes a renamed entry point fail in
the test suite, not only when the benchmark runs.
"""

import sys
from pathlib import Path

from dbdiag import TrainConfig, data, default_scenario, detector, generate, report, similarity

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
try:
    from spans import Tracer, instrument
finally:
    sys.path.pop(0)


def test_spans_cover_a_fit_and_restore_every_attribute():
    frame = generate(default_scenario(seed=3, duration_minutes=600)).stats
    owners = (data, detector, report, similarity, detector.Detector, detector.Adam)
    before = [dict(vars(owner)) for owner in owners]
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        tracer.begin(0)
        result = detector.train(frame, TrainConfig(architecture="BTN-(8)-(4)-(8*)-BTN*",
                                                   max_epochs=1, batch_size=64))
        counts = tracer.end()
    finally:
        restore()
    assert result.epochs_run == 1
    names = {span[0] for span in tracer.spans}
    for kind in ("btn", "btn_reverse", "dense", "relu"):
        assert {f"nn.{kind}.fwd", f"nn.{kind}.bwd"} <= names, kind
    assert {"nn.adam.step", "detector.train", "data.make_windows", "nn.infer.fwd"} <= names
    assert counts["nn.adam.steps"] == counts["detector.batches"] > 0
    after = [dict(vars(owner)) for owner in owners]
    for owner, old, new in zip(owners, before, after):
        assert old.keys() == new.keys(), owner
        changed = [key for key in old if old[key] is not new[key]]
        assert changed == [], owner
