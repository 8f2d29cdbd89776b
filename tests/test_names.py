"""One rule for a metric name, kept at every place a name enters, and the
names it lets through survive a CSV, a model and a score file unchanged."""

import json
from pathlib import Path

import numpy as np
import pytest

from dbdiag import (
    MetricFrame,
    ScoreSeries,
    TrainConfig,
    load_metrics,
    load_model,
    save_model,
    train,
    write_metrics,
)
from dbdiag.cli import main
from dbdiag.data import check_names, json_checksum
from dbdiag.errors import ConfigError, DataError

# a model file in format 2 over the features ("cpu", "io")
FIXTURE_MODEL = Path(__file__).parent / "data" / "bn_btn_model.json"

# (names, the rule the first bad name breaks, the rule a CSV header breaks once
# its names are stripped of surrounding whitespace)
BAD_NAMES = [
    (("a", ""), "name 2 is empty", None),
    (("a", " a"), "name ' a' has surrounding whitespace", "name 'a' appears more than once"),
    (("a", "a "), "name 'a ' has surrounding whitespace", "name 'a' appears more than once"),
    (("a", "a\x00b"), "name 'a\\x00b' holds a character XML 1.0 cannot hold", None),
    (("a", "a\x1fb"), "name 'a\\x1fb' holds a character XML 1.0 cannot hold", None),
    (("a", "a\ufffeb"), "name 'a\\ufffeb' holds a character XML 1.0 cannot hold", None),
    (("a", "b", "a"), "name 'a' appears more than once", None),
    ((), "there must be at least one name", None),
    (("a", "x" * 246), f"name '{'x' * 246}' gives a chart file name of more than 255 bytes",
     None),
]
IDS = ["empty", "leading_space", "trailing_space", "nul", "unit_separator",
       "non_character", "duplicate", "no_names", "too_long_for_a_file_name"]

# a comma, a quote, an inner space, %, /, non-ASCII and an inner tab
AWKWARD_NAMES = ("a,b", 'say "hi"', "inner space", "50%", "cpu/used", "café", "a\tb")


def minutes(n):
    return 27_875_520 + np.arange(n, dtype=np.int64)


@pytest.mark.parametrize("names, rule, csv_rule", BAD_NAMES, ids=IDS)
class TestEveryEntryPointRefuses:
    def test_a_frame(self, names, rule, csv_rule):
        with pytest.raises(DataError) as caught:
            MetricFrame(names, minutes(3), np.ones((3, len(names))))
        assert str(caught.value) == f"metric_names: {rule}"

    def test_a_csv_header(self, tmp_path, capsys, names, rule, csv_rule):
        stats = tmp_path / "stats.csv"
        row = ",".join(["2023-01-01T00:00:00Z"] + ["1"] * len(names))
        stats.write_text(",".join(["timestamp", *names]) + "\n" + row + "\n",
                         encoding="utf-8")
        assert main(["train", "--stats", str(stats),
                     "--model", str(tmp_path / "model.json")]) == 3
        assert (f"error: {stats}: metric names: {csv_rule or rule}\n"
                == capsys.readouterr().err)

    def test_a_model_file(self, tmp_path, capsys, names, rule, csv_rule):
        doc = json.loads(FIXTURE_MODEL.read_text())
        doc["feature_names"] = list(names)
        del doc["checksum"]
        doc["checksum"] = json_checksum(doc)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        stats = tmp_path / "stats.csv"
        write_metrics(str(stats), MetricFrame(("cpu", "io"), minutes(8), np.ones((8, 2))))
        assert main(["score", "--model", str(model), "--stats", str(stats),
                     "--out", str(tmp_path / "scores.json")]) == 4
        assert f"error: feature_names: {rule}\n" == capsys.readouterr().err

    def test_a_score_file(self, tmp_path, capsys, names, rule, csv_rule):
        scores = ScoreSeries(np.ones((2, len(names))), minutes(2), 4, names)
        path = tmp_path / "scores.json"
        scores.write_json(str(path))
        assert main(["detect", "--scores", str(path),
                     "--out", str(tmp_path / "detections.json")]) == 4
        assert f"error: feature_names: {rule}\n" == capsys.readouterr().err

    @pytest.mark.parametrize("field", ["features", "events"])
    def test_a_scenario_spec(self, tmp_path, capsys, names, rule, csv_rule, field):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"duration_minutes": 100, field: list(names)}))
        out = tmp_path / "out"
        assert main(["gen", "--spec", str(spec), "--out-dir", str(out)]) == 2
        assert f"error: {field}: {rule}\n" == capsys.readouterr().err
        assert not out.exists()


def test_the_rule_returns_the_names_as_a_tuple():
    assert check_names(["b", "a"], ConfigError, "names") == ("b", "a")
    assert check_names(iter(AWKWARD_NAMES), ConfigError, "names") == AWKWARD_NAMES


def test_a_chart_file_name_of_255_bytes_is_the_longest_allowed():
    # chart_ + name + .svg, with % and / taking three bytes and é two
    longest = ("a" * 245, "%" * 81 + "aa", "/" * 81 + "bb", "é" * 122 + "a")
    assert check_names(longest, ConfigError, "names") == longest
    for name in ("a" * 246, "%" * 82, "/" * 82, "é" * 123):
        with pytest.raises(ConfigError, match="gives a chart file name of more than 255"):
            check_names(["a", name], ConfigError, "names")


def test_a_lone_surrogate_is_refused(tmp_path, capsys):
    """A surrogate has no UTF-8 form, so no CSV, SVG or file name can hold it."""
    with pytest.raises(DataError, match="holds a character XML 1.0 cannot hold"):
        MetricFrame(("a", "b\ud800"), minutes(3), np.ones((3, 2)))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"duration_minutes": 100, "features": ["a", "b\udfff"]}))
    assert main(["gen", "--spec", str(spec), "--out-dir", str(tmp_path / "out")]) == 2
    assert (capsys.readouterr().err
            == "error: features: name 'b\\udfff' holds a character XML 1.0 cannot hold\n")
    assert not (tmp_path / "out").exists()


def test_awkward_names_survive_a_csv_a_model_and_scoring(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.normal(size=(120, len(AWKWARD_NAMES))) * 1e-3 + np.pi
    frame = MetricFrame(AWKWARD_NAMES, minutes(120), values)
    path = str(tmp_path / "stats.csv")
    write_metrics(path, frame)
    back = load_metrics(path)
    assert back.metric_names == AWKWARD_NAMES
    np.testing.assert_array_equal(back.timestamps, frame.timestamps)
    np.testing.assert_array_equal(back.values.view(np.uint64), values.view(np.uint64))

    model = str(tmp_path / "model.json")
    save_model(train(back, TrainConfig(architecture="BTN-(8)-(4)-(8*)-BTN*",
                                       window_steps=8, max_epochs=1)).detector, model)
    detector = load_model(model)
    assert detector.feature_names == AWKWARD_NAMES
    scores = detector.score_frame(load_metrics(path))
    assert scores.feature_names == AWKWARD_NAMES
    assert scores.scores.shape == (113, len(AWKWARD_NAMES))
    assert np.isfinite(scores.scores).all()
