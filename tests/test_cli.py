"""Exit codes and end-to-end subcommand plumbing."""

import csv
import glob
import hashlib
import json
import os
import subprocess
import sys
from xml.etree import ElementTree

import numpy as np
import pytest

import dbdiag
from dbdiag import ReportConfig, TrainConfig, minute_to_iso
from dbdiag.cli import _build_parser, _config_from, _merge_config, main
from dbdiag.data import LAST_MINUTE, decode_array, encode_array, json_checksum, json_text


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen -> train once; later tests reuse the artifacts."""
    root = str(tmp_path_factory.mktemp("pipeline"))
    data = os.path.join(root, "data")
    model = os.path.join(root, "model.json")
    assert main(["gen", "--out-dir", data, "--seed", "3",
                 "--duration", "1200"]) == 0
    assert main(["train", "--stats", os.path.join(data, "stats.csv"),
                 "--model", model,
                 "--architecture", "BTN-(16)-(6)-(16*)-BTN*",
                 "--epochs", "5", "--patience", "5",
                 "--batch-size", "256"]) == 0
    return {"root": root, "data": data, "model": model,
            "stats": os.path.join(data, "stats.csv"),
            "events": os.path.join(data, "events.csv")}


class TestExitCodes:
    def test_unknown_flag_is_usage(self, capsys):
        assert main(["gen", "--frobnicate"]) == 2

    def test_unknown_subcommand_is_usage(self, capsys):
        assert main(["explode"]) == 2

    def test_missing_data_file_is_data_error(self, tmp_path, capsys):
        rc = main(["train", "--stats", str(tmp_path / "nope.csv"),
                   "--model", str(tmp_path / "m.json")])
        assert rc == 3
        assert "nope.csv" in capsys.readouterr().err

    def test_corrupt_model_is_model_error(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        rc = main(["score", "--model", str(bad), "--stats", pipeline["stats"],
                   "--out", str(tmp_path / "s.json")])
        assert rc == 4

    def test_feature_mismatch_is_data_error(self, pipeline, tmp_path, capsys):
        wrong = tmp_path / "wrong.csv"
        wrong.write_text("timestamp,a,b\n"
                         "2023-01-01T00:00:00Z,1,2\n"
                         "2023-01-01T00:01:00Z,3,4\n")
        rc = main(["score", "--model", pipeline["model"],
                   "--stats", str(wrong), "--out", str(tmp_path / "s.json")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "cpu_used" in err and "a, b" in err

    def test_non_finite_metric_is_data_error(self, tmp_path, capsys):
        stats = tmp_path / "stats.csv"
        stats.write_text("timestamp,a\n"
                         "2023-01-01T00:00:00Z,1.0\n"
                         "2023-01-01T00:01:00Z,nan\n")
        rc = main(["train", "--stats", str(stats),
                   "--model", str(tmp_path / "m.json")])
        assert rc == 3
        assert "non-finite value nan in row 3, column 'a'" in capsys.readouterr().err

    def test_non_finite_score_is_data_error(self, pipeline, tmp_path, capsys):
        scores = tmp_path / "scores.json"
        assert main(["score", "--model", pipeline["model"],
                     "--stats", pipeline["stats"], "--out", str(scores)]) == 0
        doc = json.loads(scores.read_text())
        doc["scores"][5][1] = float("nan")
        scores.write_text(json.dumps(doc))  # json writes and reads NaN
        rc = main(["detect", "--scores", str(scores),
                   "--out", str(tmp_path / "det.json")])
        assert rc == 3
        assert (f"non-finite score nan for feature {doc['feature_names'][1]!r} "
                f"in window 5" in capsys.readouterr().err)

    def test_non_finite_model_weight_is_model_error(self, pipeline, tmp_path, capsys):
        doc = json.loads(open(pipeline["model"]).read())
        weights = decode_array(doc["state"]["2:dense.weights"]).copy()
        weights[1, 2] = np.inf
        doc["state"]["2:dense.weights"] = encode_array(weights)
        del doc["checksum"]
        doc["checksum"] = json_checksum(doc)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        out = tmp_path / "scores.json"
        rc = main(["score", "--model", str(model), "--stats", pipeline["stats"],
                   "--out", str(out), "--csv", str(tmp_path / "scores.csv")])
        assert rc == 4
        assert "state entry 2:dense.weights holds inf" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["model.json"]

    @pytest.mark.parametrize("content", [None, "{not json"],
                             ids=["missing", "invalid"])
    @pytest.mark.parametrize("reader,code", [
        ("score --model", 4), ("detect --scores", 4), ("detect --baseline", 4),
        ("gen --spec", 2), ("--config", 2)])
    def test_unreadable_json_input(self, pipeline, tmp_path, capsys,
                                   reader, code, content):
        bad = tmp_path / "bad.json"
        if content is not None:
            bad.write_text(content)
        scores = tmp_path / "scores.json"
        assert main(["score", "--model", pipeline["model"],
                     "--stats", pipeline["stats"], "--out", str(scores)]) == 0
        argv = {
            "score --model": ["score", "--model", str(bad), "--stats",
                              pipeline["stats"], "--out", str(tmp_path / "s.json")],
            "detect --scores": ["detect", "--scores", str(bad),
                                "--out", str(tmp_path / "d.json")],
            "detect --baseline": ["detect", "--scores", str(scores), "--baseline",
                                  str(bad), "--out", str(tmp_path / "d.json")],
            "gen --spec": ["gen", "--spec", str(bad), "--out-dir", str(tmp_path)],
            "--config": ["detect", "--scores", str(scores), "--out",
                         str(tmp_path / "d.json"), "--config", str(bad)],
        }[reader]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert ("cannot open" if content is None else "is not valid JSON") in err
        assert "bad.json" in err

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["window_starts"].reverse(),
         "window starts must be strictly increasing: window 1"),
        (lambda doc: doc.update(window_steps=1), "window_steps must be at least 2"),
        (lambda doc: doc.update(window_steps=10.9),
         "window_steps must be an integer, got 10.9"),
        (lambda doc: doc.update(window_steps="10"),
         "window_steps must be an integer, got '10'"),
        (lambda doc: doc.update(window_steps=True),
         "window_steps must be an integer, got True"),
        (lambda doc: doc["feature_names"].__setitem__(1, doc["feature_names"][0]),
         "feature name 'cpu_used' appears more than once"),
        (lambda doc: doc["feature_names"].__setitem__(1, "a\x01b"),
         "feature name 'a\\x01b' holds a character that XML cannot hold"),
        (lambda doc: doc.update(feature_names="".join(doc["feature_names"])),
         "feature_names must be a JSON list of strings"),
        (lambda doc: doc["feature_names"].__setitem__(2, ""),
         "feature names cannot be empty"),
    ], ids=["reversed_starts", "one_step_windows", "fractional_window_steps",
            "string_window_steps", "boolean_window_steps", "repeated_feature_name",
            "control_character_in_name", "string_feature_names", "empty_feature_name"])
    def test_malformed_scores_are_model_errors(self, pipeline, tmp_path, capsys,
                                               edit, message):
        scores = tmp_path / "scores.json"
        assert main(["score", "--model", pipeline["model"],
                     "--stats", pipeline["stats"], "--out", str(scores)]) == 0
        doc = json.loads(scores.read_text())
        edit(doc)
        scores.write_text(json.dumps(doc))
        rc = main(["detect", "--scores", str(scores),
                   "--out", str(tmp_path / "det.json")])
        assert rc == 4
        assert message in capsys.readouterr().err

    def test_a_spec_name_list_given_as_a_string_is_usage(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"duration_minutes": 100, "features": "cpu",
                                    "events": "io"}))
        out = tmp_path / "out"
        assert main(["gen", "--spec", str(spec), "--out-dir", str(out)]) == 2
        assert "features must be a JSON list of strings" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        ({"magnitude": float("nan")}, "injection magnitude must be positive and finite, got nan"),
        ({"magnitude": float("inf")}, "injection magnitude must be positive and finite, got inf"),
        ({"baseline": {"level": "x"}}, "baseline cpu_used.level must be a finite number, got 'x'"),
        ({"baseline": {"level": float("nan")}},
         "baseline cpu_used.level must be a finite number, got nan"),
        ({"baseline": {"phase": True}}, "baseline cpu_used.phase must be a finite number, got True"),
        ({"baseline": {"noise_sigma": -1}},
         "baseline cpu_used.noise_sigma cannot be negative, got -1"),
        ({"feature": "nosuch"}, "baseline for unknown feature 'nosuch'"),
    ], ids=["nan_magnitude", "infinite_magnitude", "string_level", "nan_level",
            "boolean_phase", "negative_noise", "unknown_feature"])
    def test_a_spec_that_cannot_be_written_as_data_is_usage(self, tmp_path, capsys,
                                                            edit, message):
        baseline = {"level": 1, "daily_amplitude": 1, "trend_slope": 0,
                    "noise_sigma": 1, **edit.get("baseline", {})}
        injection = {"kind": "spike", "feature": "cpu_used", "offset": 10,
                     "duration": 5, "magnitude": edit.get("magnitude", 3.0)}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "duration_minutes": 100, "injections": [injection],
            "baselines": {edit.get("feature", "cpu_used"): baseline}}))
        out = tmp_path / "out"
        assert main(["gen", "--spec", str(spec), "--out-dir", str(out)]) == 2
        assert f"error: {message}\n" == capsys.readouterr().err
        assert not out.exists()

    def test_null_and_spec_conflict_is_usage(self, tmp_path, capsys):
        rc = main(["gen", "--out-dir", str(tmp_path), "--null",
                   "--spec", "x.json"])
        assert rc == 2

    def test_null_and_drift_conflict_is_usage(self, tmp_path, capsys):
        assert main(["gen", "--out-dir", str(tmp_path / "out"), "--null",
                     "--drift"]) == 2
        assert "--null and --drift are mutually exclusive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_a_split_that_is_not_a_number_is_usage(self, tmp_path, capsys):
        assert main(["train", "--stats", str(tmp_path / "absent.csv"),
                     "--model", str(tmp_path / "m.json"), "--split", "0.6,x,0.2"]) == 2
        assert "bad split fractions '0.6,x,0.2'" in capsys.readouterr().err

    def test_a_config_that_holds_a_list_is_usage(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([{"epochs": 3}]))
        assert main(["train", "--stats", str(tmp_path / "absent.csv"),
                     "--model", str(tmp_path / "m.json"), "--config", str(cfg)]) == 2
        assert f"config {cfg} must hold a JSON object" in capsys.readouterr().err

    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("variant", [[], ["--null"], ["--drift"]],
                             ids=["default", "null", "drift"])
    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_zero_duration_is_usage(self, tmp_path, capsys, variant, via_config):
        argv = ["gen", "--out-dir", str(tmp_path / "out"), *variant]
        if via_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"duration": 0}))
            argv += ["--config", str(cfg)]
        else:
            argv += ["--duration", "0"]
        assert main(argv) == 2
        assert "got 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value,message", [
        ("epochs", 1.5, "argument --epochs"),
        ("batch_size", 100.0, "argument --batch-size"),
        ("learning_rate", "fast", "argument --learning-rate"),
        ("split", [0.6, 0.4], "argument --split"),
        ("verbose", "false", "verbose must be true or false"),
    ])
    def test_config_value_of_the_wrong_type_is_usage(self, pipeline, tmp_path,
                                                     capsys, key, value, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        rc = main(["train", "--stats", pipeline["stats"],
                   "--model", str(tmp_path / "m.json"), "--config", str(cfg)])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen", "train", "gen --spec"])
    def test_negative_seed_is_usage(self, pipeline, tmp_path, capsys, command):
        out = tmp_path / "out"
        if command == "gen":
            argv = ["gen", "--out-dir", str(out), "--seed", "-1", "--duration", "700"]
        elif command == "train":
            argv = ["train", "--stats", pipeline["stats"], "--model",
                    str(out / "m.json"), "--seed", "-1"]
        else:
            spec = json.loads(open(os.path.join(pipeline["data"],
                                                "scenario.json")).read())
            spec["seed"] = -1
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(spec))
            argv = ["gen", "--spec", str(path), "--out-dir", str(out)]
        assert main(argv) == 2
        assert "seed cannot be negative, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("start", [-2_000_000_000, LAST_MINUTE - 100])
    def test_out_of_range_start_minute_is_usage(self, tmp_path, capsys, start):
        """Both ends of the years 1 to 9999: the spec is refused before
        anything is generated or written."""
        out = tmp_path / "out"
        out.mkdir()
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 1, "duration_minutes": 120,
                                    "start_minute": start}))
        assert main(["gen", "--spec", str(spec), "--out-dir", str(out)]) == 2
        assert "outside the years 1 to 9999" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["match", "report"])
    def test_negative_margin_is_usage(self, pipeline, tmp_path, capsys, command):
        out = tmp_path / "out"
        if command == "match":
            argv = ["match", "--stats", pipeline["stats"],
                    "--events", pipeline["events"], "--feature", "cpu_used",
                    "--start", "2023-01-01T00:00:00Z",
                    "--end", "2023-01-01T01:00:00Z", "--out", str(out)]
        else:
            argv = ["report", "--model", pipeline["model"], "--stats",
                    pipeline["stats"], "--events", pipeline["events"],
                    "--out-dir", str(out)]
        assert main([*argv, "--margin", "-5"]) == 2
        assert "margin cannot be negative, got -5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["detect", "report"])
    def test_non_finite_sigma_is_usage(self, pipeline, tmp_path, capsys, command,
                                       sigma):
        out = tmp_path / "out"
        if command == "detect":
            scores = str(tmp_path / "scores.json")
            assert main(["score", "--model", pipeline["model"], "--stats",
                         pipeline["stats"], "--out", scores]) == 0
            argv = ["detect", "--scores", scores, "--out", str(out)]
        else:
            argv = ["report", "--model", pipeline["model"], "--stats",
                    pipeline["stats"], "--out-dir", str(out)]
        assert main([*argv, "--sigma", sigma]) == 2
        assert "must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option,value,message", [
        ("--split", "0.6,nan,0.2", "split needs three finite positive fractions"),
        ("--learning-rate", "nan", "learning_rate must be finite"),
        ("--learning-rate", "inf", "learning_rate must be finite"),
        ("--l2-lambda", "nan", "l2_lambda must be finite"),
        ("--l2-lambda", "inf", "l2_lambda must be finite"),
    ])
    def test_non_finite_training_option_is_usage(self, pipeline, tmp_path, capsys,
                                                 option, value, message):
        model = tmp_path / "m.json"
        rc = main(["train", "--stats", pipeline["stats"], "--model", str(model),
                   "--epochs", "1", option, value])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("command,option,value,message", [
        ("train", "--split", "0.6,nan,0.2", "split needs three finite positive fractions"),
        ("ablate", "--learning-rate", "nan", "learning_rate must be finite"),
        ("report", "--sigma", "nan", "sigma_k must be finite and positive, got nan"),
        ("detect", "--sigma", "nan", "sigma_k must be finite and positive, got nan"),
        ("detect", "--gap-tolerance", "-1", "gap_tolerance cannot be negative, got -1"),
        ("match", "--margin", "-5", "margin cannot be negative, got -5"),
        ("train", "--architecture", "bogus", "unrecognized token 'bogus'"),
        ("train", "--window", "1", "window_steps must be at least 2, got 1"),
        ("train", "--stride", "0", "stride must be at least 1, got 0"),
        ("ablate", "--window", "1", "window_steps must be at least 2, got 1"),
        ("ablate", "--architectures", ";", "--architectures is empty"),
        ("report", "--stride", "0", "stride must be at least 1, got 0"),
        ("score", "--stride", "0", "stride must be at least 1, got 0"),
    ])
    def test_bad_training_option_is_refused_before_the_csv_is_read(
            self, tmp_path, capsys, command, option, value, message):
        """Every command checks its options before it opens an input file,
        so a bad option exits 2 and never reports a missing file."""
        inputs = {
            "train": ["--stats", "missing.csv", "--model", "m.json"],
            "ablate": ["--stats", "missing.csv", "--out", "ablate.json"],
            "report": ["--model", "missing.json", "--stats", "missing.csv",
                       "--out-dir", "out"],
            "score": ["--model", "missing.json", "--stats", "missing.csv",
                      "--out", "scores.json"],
            "detect": ["--scores", "missing.json", "--out", "detections.json"],
            "match": ["--stats", "missing.csv", "--events", "missing_events.csv",
                      "--out", "matches.json"],
        }[command]
        argv = [command, *(str(tmp_path / a) if i % 2 else a
                           for i, a in enumerate(inputs)), option, value]
        if command == "match":
            argv += ["--feature", "cpu_used", "--start", "2023-01-01T00:00:00Z",
                     "--end", "2023-01-01T01:00:00Z"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "missing" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("start, end, message", [
        ("2023-01-02T00:00:00Z", "2023-01-01T00:00:00Z",
         "--end 2023-01-01T00:00:00Z is not after --start 2023-01-02T00:00:00Z"),
        ("2023-01-01T00:00:00Z", "2023-01-01T00:00:00Z",
         "--end 2023-01-01T00:00:00Z is not after --start 2023-01-01T00:00:00Z"),
        ("2023-01-01T02:00:30Z", "2023-01-01T03:00:00Z",
         "--start: timestamp '2023-01-01T02:00:30Z' is not minute-aligned"),
        ("2023-01-01T00:00:00Z", "yesterday", "--end: unparseable timestamp 'yesterday'"),
        ("2023-01-01T00:00:00Z", "1e300",
         "--end: timestamp '1e300' is outside the years 1 to 9999"),
    ], ids=["reversed", "empty", "misaligned", "unparseable", "out_of_range"])
    def test_a_match_period_that_names_no_minutes_is_refused_first(
            self, tmp_path, capsys, start, end, message):
        """``--start`` and ``--end`` are read before either (here missing)
        CSV, and a refusal names the option and the stamp as typed."""
        rc = main(["match", "--stats", str(tmp_path / "missing.csv"),
                   "--events", str(tmp_path / "missing_events.csv"),
                   "--feature", "cpu_used", "--start", start, "--end", end])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err
        assert "missing" not in err

    @pytest.mark.parametrize("command, option, target, message", [
        ("train", "--model", "nodir/m.json", "nodir is not a directory"),
        ("train", "--history", "nodir/h.json", "nodir is not a directory"),
        ("score", "--out", "nodir/scores.json", "nodir is not a directory"),
        ("score", "--csv", "afile/scores.csv", "afile is not a directory"),
        ("detect", "--out", "nodir/detections.json", "nodir is not a directory"),
        ("match", "--out", "nodir/matches.json", "nodir is not a directory"),
        ("match", "--out", "adir", "it is a directory"),
        ("ablate", "--out", "adir", "it is a directory"),
    ])
    def test_an_output_file_that_cannot_be_written_is_refused_first(
            self, tmp_path, capsys, command, option, target, message):
        """An output whose directory is missing or is a file, or that is
        itself a directory, exits 2 before any (here missing) input is read."""
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("")
        inputs = {
            "train": ["--stats", "missing.csv", "--model", "m.json"],
            "score": ["--model", "missing.json", "--stats", "missing.csv",
                      "--out", "scores.json"],
            "detect": ["--scores", "missing.json", "--out", "detections.json"],
            "match": ["--stats", "missing.csv", "--events", "missing_events.csv"],
            "ablate": ["--stats", "missing.csv"],
        }[command]
        paths = dict(zip(inputs[::2], inputs[1::2]), **{option: target})
        argv = [command, *(x for flag, path in paths.items()
                           for x in (flag, str(tmp_path / path)))]
        if command == "match":
            argv += ["--feature", "cpu_used", "--start", "2023-01-01T00:00:00Z",
                     "--end", "2023-01-01T01:00:00Z"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "missing" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile"]

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_a_file"])
    def test_a_gen_out_dir_that_is_not_a_directory_is_usage(self, tmp_path, capsys,
                                                            under):
        target = tmp_path / "out"
        target.write_text("not a directory")
        if under:
            target = target / "data"
        assert main(["gen", "--out-dir", str(target), "--duration", "600"]) == 2
        assert f"{target} is not a directory" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    @pytest.mark.parametrize("layout", ["file", "under_a_file", "charts_file"])
    def test_an_out_dir_that_is_not_a_directory_is_usage(self, tmp_path, capsys,
                                                         layout):
        target = tmp_path / "out"
        if layout == "charts_file":
            target.mkdir()
            bad = target / "charts"
        else:
            bad = target
        bad.write_text("not a directory")
        if layout == "under_a_file":
            target = bad = target / "report"
        rc = main(["report", "--model", str(tmp_path / "missing.json"),
                   "--stats", str(tmp_path / "missing.csv"), "--out-dir", str(target)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{bad} is not a directory" in err
        assert "missing" not in err

    def test_out_of_range_timestamp_is_data_error(self, tmp_path, capsys):
        stats = tmp_path / "stats.csv"
        stats.write_text("timestamp,a\n"
                         "2023-01-01T00:00:00Z,1.0\n"
                         "1e300,2.0\n")
        rc = main(["train", "--stats", str(stats),
                   "--model", str(tmp_path / "m.json")])
        assert rc == 3
        assert "'1e300' in row 3 is outside the years 1 to 9999" in capsys.readouterr().err

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_match_top_below_one_is_usage(self, pipeline, tmp_path, capsys, top):
        out = tmp_path / "matches.json"
        rc = main(["match", "--stats", pipeline["stats"],
                   "--events", pipeline["events"], "--feature", "cpu_used",
                   "--start", "2023-01-01T00:00:00Z",
                   "--end", "2023-01-01T01:00:00Z", "--top", top,
                   "--out", str(out)])
        assert rc == 2
        assert "--top must be at least 1" in capsys.readouterr().err
        assert not out.exists()


class TestPipeline:
    def test_gen_writes_the_bundle(self, pipeline):
        names = set(os.listdir(pipeline["data"]))
        assert {"stats.csv", "events.csv", "scenario.json",
                "labels.json"} <= names

    def test_score_then_detect(self, pipeline, tmp_path):
        scores = str(tmp_path / "scores.json")
        csv_out = str(tmp_path / "scores.csv")
        assert main(["score", "--model", pipeline["model"],
                     "--stats", pipeline["stats"], "--out", scores,
                     "--csv", csv_out]) == 0
        doc = json.loads(open(scores).read())
        with open(csv_out, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["window_start", *doc["feature_names"]]
        assert [r[0] for r in rows] == doc["window_starts"]
        assert [[float(v) for v in r[1:]] for r in rows] == doc["scores"]
        detections = str(tmp_path / "det.json")
        assert main(["detect", "--scores", scores, "--out", detections]) == 0
        doc = json.loads(open(detections).read())
        assert doc["format"] == "dbdiag-detections"
        assert set(doc["charts"]) == {
            "cpu_used", "active_session", "session_logical_reads",
            "physical_reads", "execute_counts", "lock_waiting_session"}

    def test_match_ranks_events(self, pipeline, tmp_path, capsys):
        labels = json.loads(open(os.path.join(pipeline["data"],
                                              "labels.json")).read())
        lab = labels[0]
        out = str(tmp_path / "matches.json")
        rc = main(["match", "--stats", pipeline["stats"],
                   "--events", pipeline["events"],
                   "--feature", lab["feature"],
                   "--start", lab["start"], "--end", lab["end"],
                   "--margin", "5", "--out", out])
        assert rc == 0
        doc = json.loads(open(out).read())
        assert [m["rank_dtw"] for m in doc["matches"]][0] == 1
        assert "rank_dtw" in capsys.readouterr().out

    def test_match_csv_export(self, pipeline, tmp_path):
        labels = json.loads(open(os.path.join(pipeline["data"],
                                              "labels.json")).read())
        lab = labels[0]
        out = str(tmp_path / "matches.csv")
        assert main(["match", "--stats", pipeline["stats"],
                     "--events", pipeline["events"],
                     "--feature", lab["feature"],
                     "--start", lab["start"], "--end", lab["end"],
                     "--out", out]) == 0
        header = open(out).readline().strip().split(",")
        assert header == ["event", "dtw", "correlation",
                          "rank_dtw", "rank_correlation"]

    def test_report_bundle(self, pipeline, tmp_path, capsys):
        out = str(tmp_path / "report")
        rc = main(["report", "--model", pipeline["model"],
                   "--stats", pipeline["stats"],
                   "--events", pipeline["events"],
                   "--out-dir", out])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "report.json"))
        assert os.path.exists(os.path.join(out, "report.txt"))
        doc = json.loads(open(os.path.join(out, "report.json")).read())
        assert doc["model"]["architecture"] == "BTN-(16)-(6)-(16*)-BTN*"

    def test_report_charts_of_odd_names_are_on_disk_and_parse(self, pipeline, tmp_path):
        """A header that cannot be a file name or XML text as it is still gives
        a full report: chart names are percent-encoded, chart text escaped,
        every chart parses and the manifest holds."""
        head, body = open(pipeline["stats"]).read().split("\n", 1)
        names = head.split(",")
        names[1:5] = ["cpu/used", "50%", "cpu&io", "a<b>"]
        stats = tmp_path / "stats.csv"
        stats.write_text(",".join(names) + "\n" + body)
        model, out = str(tmp_path / "model.json"), str(tmp_path / "report")
        assert main(["train", "--stats", str(stats), "--model", model,
                     "--architecture", "BTN-(8)-(4)-(8*)-BTN*", "--epochs", "1",
                     "--batch-size", "256"]) == 0
        assert main(["report", "--model", model, "--stats", str(stats),
                     "--events", pipeline["events"], "--out-dir", out, "--quiet",
                     "--sigma", "1"]) == 0
        doc = json.loads(open(os.path.join(out, "report.json")).read())
        assert {"chart_cpu%2Fused.svg", "chart_50%25.svg", "chart_cpu&io.svg",
                "chart_a<b>.svg"} <= set(doc["manifest"])
        assert any(name.startswith("overlay_") for name in doc["manifest"])
        for name, digest in doc["manifest"].items():
            path = os.path.join(out, "charts", name)
            with open(path, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest, name
            ElementTree.parse(path)

    @pytest.mark.parametrize("name", ["a\0b", "a\x01b", "a\ufffeb", "a\uffffb"])
    def test_a_name_xml_cannot_hold_is_a_data_error(self, pipeline, tmp_path, capsys,
                                                   name):
        head, body = open(pipeline["stats"]).read().split("\n", 1)
        names = head.split(",")
        names[1] = name
        stats = tmp_path / "stats.csv"
        stats.write_text(",".join(names) + "\n" + body, encoding="utf-8")
        assert main(["score", "--model", pipeline["model"], "--stats", str(stats),
                     "--out", str(tmp_path / "scores.json")]) == 3
        assert f"metric column {name!r}" in capsys.readouterr().err

    def test_a_reused_report_directory_holds_exactly_its_manifest(self, pipeline,
                                                                  tmp_path):
        """A report written over an earlier one with more charts leaves only
        the new manifest's charts, as a fresh directory would hold."""
        out, fresh = str(tmp_path / "report"), str(tmp_path / "fresh")
        argv = ["report", "--model", pipeline["model"], "--stats", pipeline["stats"],
                "--events", pipeline["events"], "--quiet"]
        assert main([*argv, "--out-dir", out, "--sigma", "2"]) == 0
        before = set(os.listdir(os.path.join(out, "charts")))
        assert main([*argv, "--out-dir", out, "--sigma", "40"]) == 0
        assert main([*argv, "--out-dir", fresh, "--sigma", "40"]) == 0
        doc = json.loads(open(os.path.join(out, "report.json")).read())
        on_disk = set(os.listdir(os.path.join(out, "charts")))
        assert on_disk == set(doc["manifest"]) < before
        for name, digest in doc["manifest"].items():
            with open(os.path.join(out, "charts", name), "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest, name
        for name in ("report.json", "report.txt"):
            with open(os.path.join(out, name), "rb") as a, \
                    open(os.path.join(fresh, name), "rb") as b:
                assert a.read() == b.read(), name

    @pytest.mark.parametrize("manifest", [True, False], ids=["with", "without"])
    def test_a_chart_directory_with_other_files_is_refused(self, pipeline, tmp_path,
                                                           capsys, manifest):
        out = tmp_path / "report"
        argv = ["report", "--model", pipeline["model"], "--stats", pipeline["stats"],
                "--quiet", "--out-dir", str(out)]
        if manifest:
            assert main(argv) == 0
        else:
            (out / "charts").mkdir(parents=True)
        (out / "charts" / "notes.txt").write_text("keep me")
        before = sorted(p.name for p in (out / "charts").iterdir())
        # the directory is checked before any input is read
        missing_model = ["report", "--model", str(tmp_path / "missing.json"), *argv[3:]]
        for args in (argv, missing_model):
            assert main(args) == 2
            assert "'notes.txt', which no report.json there names" in capsys.readouterr().err
        assert sorted(p.name for p in (out / "charts").iterdir()) == before
        assert (out / "report.json").exists() == manifest

    def test_report_periods_match_the_stagewise_path(self, pipeline, tmp_path):
        """One-shot report and score->detect stages must agree on periods."""
        out = str(tmp_path / "report")
        assert main(["report", "--model", pipeline["model"],
                     "--stats", pipeline["stats"], "--out-dir", out]) == 0
        report = json.loads(open(os.path.join(out, "report.json")).read())

        scores = str(tmp_path / "scores.json")
        det = str(tmp_path / "det.json")
        assert main(["score", "--model", pipeline["model"],
                     "--stats", pipeline["stats"], "--out", scores]) == 0
        assert main(["detect", "--scores", scores, "--out", det]) == 0
        staged = json.loads(open(det).read())

        report_spans = [(g["start"], g["end"])
                        for g in report["anomaly_periods"]]
        staged_spans = [(g["start"], g["end"]) for g in staged["groups"]]
        assert report_spans == staged_spans[:len(report_spans)]

    def test_train_verbose_prints_each_epoch_of_the_history(self, pipeline, tmp_path,
                                                            capsys):
        history = tmp_path / "history.json"
        assert main(["train", "--stats", pipeline["stats"],
                     "--model", str(tmp_path / "model.json"),
                     "--architecture", "BTN-(8)-(4)-(8*)-BTN*",
                     "--epochs", "3", "--patience", "3", "--batch-size", "256",
                     "--history", str(history), "--verbose"]) == 0
        rows = json.loads(history.read_text())
        lines = [line.split() for line in capsys.readouterr().out.splitlines()
                 if line.startswith("epoch")]
        assert len(lines) == len(rows) == 3
        for words, row in zip(lines, rows):
            assert words[0::2] == ["epoch", "objective", "train_mse", "val_mse"]
            assert int(words[1]) == row["epoch"]
            for printed, key in zip(words[3::2], ("train_objective", "train_mse",
                                                  "val_mse")):
                assert abs(float(printed) - row[key]) <= 5e-7, key

    def test_ablate_writes_a_row_per_architecture(self, pipeline, tmp_path):
        out = str(tmp_path / "ablation.json")
        rc = main(["ablate", "--stats", pipeline["stats"],
                   "--architectures", "(16)-(6)-(16*);BTN-(16)-(6)-(16*)-BTN*",
                   "--epochs", "3", "--patience", "3", "--batch-size", "256",
                   "--out", out])
        assert rc == 0
        rows = json.loads(open(out).read())
        assert [r["architecture"] for r in rows] == [
            "(16)-(6)-(16*)", "BTN-(16)-(6)-(16*)-BTN*"]
        assert all("test_mse" in r for r in rows)

    def test_every_json_artifact_has_one_layout(self, pipeline, tmp_path):
        """Each JSON file a pipeline writes is sorted, two-space indented and
        newline-terminated."""
        out = str(tmp_path)
        labels = json.loads(open(os.path.join(pipeline["data"],
                                              "labels.json")).read())
        lab = labels[0]
        steps = [
            ["train", "--stats", pipeline["stats"], "--model", f"{out}/model.json",
             "--architecture", "(16)-(6)-(16*)", "--epochs", "2", "--patience", "2",
             "--batch-size", "256", "--history", f"{out}/history.json"],
            ["score", "--model", pipeline["model"], "--stats", pipeline["stats"],
             "--out", f"{out}/scores.json"],
            ["detect", "--scores", f"{out}/scores.json", "--sigma", "2",
             "--out", f"{out}/detections.json"],
            ["match", "--stats", pipeline["stats"], "--events", pipeline["events"],
             "--feature", lab["feature"], "--start", lab["start"], "--end",
             lab["end"], "--out", f"{out}/matches.json"],
            ["report", "--model", pipeline["model"], "--stats", pipeline["stats"],
             "--events", pipeline["events"], "--out-dir", f"{out}/report",
             "--sigma", "2", "--quiet"],
            ["ablate", "--stats", pipeline["stats"], "--architectures",
             "(16)-(6)-(16*)", "--epochs", "2", "--patience", "2",
             "--batch-size", "256", "--out", f"{out}/ablate.json"],
            ["gen", "--spec", os.path.join(pipeline["data"], "scenario.json"),
             "--out-dir", f"{out}/regen"],
        ]
        for argv in steps:
            assert main(argv) == 0, argv
        paths = sorted(glob.glob(f"{out}/**/*.json", recursive=True))
        names = {os.path.relpath(p, out) for p in paths}
        assert names == {"model.json", "history.json", "scores.json",
                         "detections.json", "matches.json", "report/report.json",
                         "ablate.json", "regen/labels.json", "regen/scenario.json"}
        for path in paths + [pipeline["model"]]:
            text = open(path).read()
            assert text == json_text(json.loads(text)), path
            assert text == json.dumps(json.loads(text), indent=2,
                                      sort_keys=True) + "\n", path


class TestConfigFile:
    def test_config_fills_unset_flags(self, pipeline, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 2, "patience": 2,
                                   "batch_size": 256,
                                   "architecture": "(16)-(6)-(16*)"}))
        model = str(tmp_path / "m.json")
        hist = str(tmp_path / "hist.json")
        assert main(["train", "--stats", pipeline["stats"], "--model", model,
                     "--config", str(cfg), "--history", hist]) == 0
        assert len(json.loads(open(hist).read())) == 2

    def test_explicit_flag_beats_config(self, pipeline, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 2, "patience": 2,
                                   "batch_size": 256,
                                   "architecture": "(16)-(6)-(16*)"}))
        model = str(tmp_path / "m.json")
        hist = str(tmp_path / "hist.json")
        assert main(["train", "--stats", pipeline["stats"], "--model", model,
                     "--config", str(cfg), "--epochs", "4", "--patience", "4",
                     "--history", hist]) == 0
        assert len(json.loads(open(hist).read())) == 4

    def test_explicit_flag_at_its_default_beats_config(self, pipeline, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sigma": 2.5}))
        out = str(tmp_path / "report")
        assert main(["report", "--model", pipeline["model"],
                     "--stats", pipeline["stats"], "--out-dir", out,
                     "--config", str(cfg), "--sigma", "3"]) == 0
        doc = json.loads(open(os.path.join(out, "report.json")).read())
        assert doc["config"]["sigma_k"] == 3.0

    def test_unknown_config_key_is_usage(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epoch": 2}))
        rc = main(["train", "--stats", pipeline["stats"],
                   "--model", str(tmp_path / "m.json"), "--config", str(cfg)])
        assert rc == 2
        assert "epoch" in capsys.readouterr().err

    def test_resolved_config_lands_in_the_report(self, pipeline, tmp_path):
        out = str(tmp_path / "report")
        assert main(["report", "--model", pipeline["model"],
                     "--stats", pipeline["stats"], "--out-dir", out,
                     "--sigma", "2.5"]) == 0
        doc = json.loads(open(os.path.join(out, "report.json")).read())
        assert doc["config"]["sigma_k"] == 2.5


@pytest.mark.parametrize("argv,cls", [
    (["train", "--stats", "s.csv", "--model", "m.json"], TrainConfig),
    (["ablate", "--stats", "s.csv"], TrainConfig),
    (["report", "--model", "m.json", "--stats", "s.csv", "--out-dir", "r"],
     ReportConfig),
])
def test_unset_flags_take_the_library_defaults(argv, cls):
    parser, _ = _build_parser()
    assert _config_from(cls, parser.parse_args(argv)) == cls()


def test_config_values_parse_like_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"split": [0.5, 0.25, 0.25], "learning_rate": 0.002,
                               "epochs": 3, "verbose": True}))
    argv = ["train", "--stats", "s.csv", "--model", "m.json", "--config", str(cfg)]
    parser, commands = _build_parser()
    args = _merge_config(parser.parse_args(argv), parser, commands["train"], argv)
    assert args.verbose is True
    assert _config_from(TrainConfig, args) == TrainConfig(
        split=(0.5, 0.25, 0.25), learning_rate=0.002, max_epochs=3)


def test_console_entry_point_exists():
    # the child does not inherit pytest's pythonpath setting, so hand it the
    # directory that holds the package imported here
    src = os.path.dirname(os.path.dirname(dbdiag.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "dbdiag.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "gen" in proc.stdout and "report" in proc.stdout
