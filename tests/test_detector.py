"""Training loop, scoring, model round-trips, and the ablation sweep."""

import hashlib
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dbdiag import (
    Detector,
    GlobalNorm,
    MetricFrame,
    ScoreSeries,
    TrainConfig,
    build_network,
    load_model,
    make_windows,
    model_digest,
    parse_architecture,
    run_ablation,
    save_model,
    train,
    write_metrics,
)
from dbdiag.cli import main
from dbdiag.detector import _SCORE_CHUNK
from dbdiag.data import decode_array, encode_array, json_checksum
from dbdiag.errors import ConfigError, DataError, ModelIOError


FAST = dict(architecture="BTN-(16)-(6)-(16*)-BTN*", max_epochs=6, patience=6,
            batch_size=128)


class TestTrainConfig:
    @pytest.mark.parametrize("kw", [
        {"batch_size": 0},
        {"max_epochs": 0},
        {"patience": 0},
        {"learning_rate": 0.0},
        {"l2_lambda": -0.1},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"l2_lambda": float("nan")},
        {"l2_lambda": float("inf")},
        {"split": (0.6, float("nan"), 0.2)},
        {"split": (0.5, 0.2, 0.2)},
        {"split": (0.5, 0.5)},
    ])
    def test_bad_knobs_rejected(self, kw):
        with pytest.raises(ConfigError):
            TrainConfig(**kw)


class TestTrain:
    def test_history_and_bookkeeping(self, tiny_run):
        r = tiny_run.result
        assert r.epochs_run == len(r.history)
        assert 1 <= r.best_epoch <= r.epochs_run
        first = r.history[0]
        assert set(first) == {"epoch", "train_objective", "train_mse", "val_mse"}
        assert all(np.isfinite(list(row.values())).all() for row in r.history)

    @pytest.mark.parametrize("patience", [1, 3])
    def test_training_stops_patience_epochs_after_the_best(self, tiny_run, patience):
        config = TrainConfig(**{**FAST, "max_epochs": 40, "patience": patience,
                                "learning_rate": 0.01})
        r = train(tiny_run.scenario.stats, config)
        assert r.epochs_run == r.best_epoch + patience < config.max_epochs
        val = [row["val_mse"] for row in r.history]
        assert r.val_mse == val[r.best_epoch - 1] == min(val)

    def test_learning_actually_happens(self, tiny_run):
        hist = tiny_run.result.history
        assert hist[-1]["train_mse"] < hist[0]["train_mse"]

    def test_reported_mse_is_the_mean_of_the_score_matrix(self, tiny_run):
        r = tiny_run.result
        assert r.test_mse == pytest.approx(float(r.test_scores.scores.mean()),
                                           abs=1e-15)

    def test_same_seed_reproduces_training(self, tiny_run):
        frame = tiny_run.scenario.stats
        cfg = TrainConfig(seed=5, **FAST)
        a = train(frame, cfg)
        b = train(frame, cfg)
        np.testing.assert_array_equal(a.test_scores.scores, b.test_scores.scores)
        assert a.test_mse == b.test_mse

    def test_different_seeds_differ(self, tiny_run):
        frame = tiny_run.scenario.stats
        a = train(frame, TrainConfig(seed=1, **FAST))
        b = train(frame, TrainConfig(seed=2, **FAST))
        assert a.test_mse != b.test_mse

    def test_impossible_split_rejected(self, tiny_run):
        with pytest.raises(ConfigError):
            train(tiny_run.scenario.stats,
                  TrainConfig(split=(0.9998, 0.0001, 0.0001), **FAST))


class TestScoring:
    def test_scores_are_per_window_time_means(self, tiny_run):
        det = tiny_run.result.detector
        frame = tiny_run.scenario.stats
        scores = det.score_frame(frame)
        # recompute one entry by hand through the public pieces
        windows = make_windows(frame, det.window_steps)
        i = 17
        x = det.norm.apply(windows.windows[i])[None]
        assert x.dtype == np.float32
        pred = det.network.forward(x, training=False)
        expect = ((pred[0] - x[0]) ** 2).mean(axis=0, dtype=np.float64)
        assert scores.scores.dtype == np.float64
        np.testing.assert_allclose(scores.scores[i], expect, atol=1e-12)

    @pytest.mark.parametrize("stride", [1, 7])
    def test_score_frame_matches_window_level_normalization(self, tiny_run, stride):
        # normalizing the frame once and windowing a view of it must give
        # the bits of normalizing every window copy, for a BTN model ...
        det = tiny_run.result.detector
        frame = tiny_run.scenario.stats
        keep = np.ones(len(frame.timestamps), dtype=bool)
        keep[400:437] = False
        gapped = MetricFrame(frame.metric_names, frame.timestamps[keep],
                             frame.values[keep])
        for f in (frame, gapped):
            got = det.score_frame(f, stride=stride)
            want = det.score_windows(make_windows(f, det.window_steps, stride))
            assert np.array_equal(got.scores, want.scores)
            assert np.array_equal(got.window_starts, want.window_starts)

    def test_normalized_windows_score_alike_in_either_float_dtype(self, tiny_run):
        # scoring runs the network in float32, as training does, even on a
        # caller's float64 copy of the normalized windows
        det = tiny_run.result.detector
        frame = tiny_run.scenario.stats
        normed = replace(frame, values=det.norm.apply(frame.values))
        windows = make_windows(normed, det.window_steps)
        wide = replace(windows, windows=windows.windows.astype(np.float64))
        assert np.array_equal(det.score_windows(wide, normalized=True).scores,
                              det.score_windows(windows, normalized=True).scores)

    @pytest.mark.parametrize("gap", [False, True])
    def test_score_frame_matches_window_level_normalization_without_btn(self, gap):
        # ... and for one whose first dense layer reads the windows directly;
        # 6000 rows make more than one scoring chunk
        rng = np.random.default_rng(4)
        ts = np.arange(6000, dtype=np.int64)
        if gap:
            ts[3000:] += 90
        frame = MetricFrame(("a", "b", "c"), ts,
                            rng.normal(5.0, 2.0, size=(6000, 3)))
        network = build_network(parse_architecture("(16)-(6)-(16*)"), 30, 3, rng)
        det = Detector(network, GlobalNorm.fit(frame), 30)
        got = det.score_frame(frame)
        want = det.score_windows(make_windows(frame, 30))
        assert len(got) > _SCORE_CHUNK
        assert np.array_equal(got.scores, want.scores)
        assert np.array_equal(got.window_starts, want.window_starts)

    def test_window_starts_track_timestamps(self, tiny_run):
        det = tiny_run.result.detector
        scores = det.score_frame(tiny_run.scenario.stats, stride=7)
        assert scores.window_starts[0] == tiny_run.scenario.stats.timestamps[0]
        assert np.all(np.diff(scores.window_starts) == 7)

    def test_feature_name_mismatch_lists_both_sides(self, tiny_run):
        det = tiny_run.result.detector
        frame = tiny_run.scenario.stats
        renamed = type(frame)(tuple(n.upper() for n in frame.metric_names),
                              frame.timestamps, frame.values)
        with pytest.raises(DataError, match="CPU_USED"):
            det.score_frame(renamed)

    def test_wrong_window_length_rejected(self, tiny_run):
        det = tiny_run.result.detector
        windows = make_windows(tiny_run.scenario.stats, det.window_steps + 5)
        with pytest.raises(DataError):
            det.score_windows(windows)

    @pytest.mark.parametrize("normalized", [False, True])
    def test_zero_windows_are_a_data_error(self, tiny_run, normalized):
        det = tiny_run.result.detector
        windows = make_windows(tiny_run.scenario.stats, det.window_steps)
        empty = replace(windows, windows=windows.windows[:0],
                        start_timestamps=windows.start_timestamps[:0])
        assert empty.window_steps == det.window_steps
        with pytest.raises(DataError, match="no windows to score"):
            det.score_windows(empty, normalized=normalized)

    def test_score_series_json_roundtrip(self, tiny_run, tmp_path):
        scores = tiny_run.result.test_scores
        path = str(tmp_path / "scores.json")
        scores.write_json(path)
        back = ScoreSeries.read_json(path)
        np.testing.assert_array_equal(back.scores, scores.scores)
        np.testing.assert_array_equal(back.window_starts, scores.window_starts)
        assert back.feature_names == scores.feature_names
        assert back.window_steps == scores.window_steps

    def test_score_file_with_a_bad_start_names_only_the_text(self, tiny_run, tmp_path):
        path = tmp_path / "scores.json"
        tiny_run.result.test_scores.write_json(str(path))
        doc = json.loads(path.read_text())
        doc["window_starts"][0] = "1e300"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError) as info:
            ScoreSeries.read_json(str(path))
        assert str(info.value) == "timestamp '1e300' is outside the years 1 to 9999"

    @pytest.mark.parametrize("names", ["ab", ["a", 2], {"a": 1, "b": 2}])
    def test_score_file_feature_names_must_be_a_list_of_strings(self, names):
        payload = ScoreSeries(np.zeros((1, 2)), np.array([0]), 4, ("a", "b")).to_dict()
        payload["feature_names"] = names
        with pytest.raises(ModelIOError, match="feature_names must be a JSON list "
                                               "of strings"):
            ScoreSeries.from_dict(payload)


class TestModelIO:
    def test_roundtrip_scores_identically(self, tiny_run, tmp_path):
        det = tiny_run.result.detector
        path = str(tmp_path / "model.json")
        save_model(det, path)
        loaded = load_model(path)
        frame = tiny_run.scenario.stats
        np.testing.assert_array_equal(loaded.score_frame(frame).scores,
                                      det.score_frame(frame).scores)
        assert loaded.architecture == det.architecture

    def test_digest_is_stable(self, tiny_run, tmp_path):
        path = str(tmp_path / "model.json")
        save_model(tiny_run.result.detector, path)
        assert model_digest(path) == model_digest(path)

    def test_corrupted_payload_rejected(self, tiny_run, tmp_path):
        path = tmp_path / "model.json"
        save_model(tiny_run.result.detector, str(path))
        doc = json.loads(path.read_text())
        doc["window_steps"] = 9999
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelIOError, match="integrity"):
            load_model(str(path))

    def edited_model(self, detector, tmp_path, edit, part="state"):
        """A saved model with the arrays of one part edited and its checksum
        recomputed. ``edit`` gets a dict of writable arrays."""
        path = tmp_path / "model.json"
        save_model(detector, str(path))
        doc = json.loads(path.read_text())
        arrays = {name: decode_array(entry).copy() for name, entry in doc[part].items()}
        edit(arrays)
        doc[part] = {name: encode_array(np.asarray(value))
                     for name, value in arrays.items()}
        return self.resealed(doc, path)

    @staticmethod
    def resealed(doc, path):
        """Write a model document with its checksum recomputed."""
        del doc["checksum"]
        doc["checksum"] = hashlib.sha256(json.dumps(
            doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
        path.write_text(json.dumps(doc))
        return str(path)

    def test_missing_state_entry_rejected(self, tiny_run, tmp_path):
        path = self.edited_model(tiny_run.result.detector, tmp_path,
                                 lambda state: state.pop("2:dense.weights"))
        with pytest.raises(ModelIOError,
                           match=r"missing \[2:dense.weights\], unknown \[\]"):
            load_model(path)

    def test_unknown_state_entry_rejected(self, tiny_run, tmp_path):
        def add(state):
            state["99:dense.weights"] = state["2:dense.weights"]
        path = self.edited_model(tiny_run.result.detector, tmp_path, add)
        with pytest.raises(ModelIOError,
                           match=r"missing \[\], unknown \[99:dense.weights\]"):
            load_model(path)

    def test_misshapen_state_entry_rejected(self, tiny_run, tmp_path):
        def cut(state):
            state["2:dense.bias"] = state["2:dense.bias"][:-1]
        path = self.edited_model(tiny_run.result.detector, tmp_path, cut)
        with pytest.raises(ModelIOError, match="shape mismatch for 2:dense.bias"):
            load_model(path)

    @pytest.mark.parametrize("count", [float("nan"), 2.5])
    def test_fractional_update_count_rejected(self, tmp_path, count):
        path = self.edited_model(load_model(str(FIXTURE_MODEL)), tmp_path,
                                 lambda state: state.update({"4:bn.updates": count}))
        with pytest.raises(ModelIOError, match="malformed model file"):
            load_model(path)

    def test_short_normalization_mean_rejected(self, tiny_run, tmp_path):
        path = self.edited_model(tiny_run.result.detector, tmp_path,
                                 lambda norm: norm.update(mean=norm["mean"][:-1]),
                                 "normalization")
        with pytest.raises(ModelIOError, match=r"normalization.mean has shape \(5,\) "
                                               r"for 6 features"):
            load_model(path)

    def test_zero_normalization_std_rejected(self, tiny_run, tmp_path):
        def zero(norm):
            norm["std"][2] = 0.0
        path = self.edited_model(tiny_run.result.detector, tmp_path, zero, "normalization")
        with pytest.raises(ModelIOError, match=r"normalization.std\[2\] "
                                               r"\('session_logical_reads'\) is 0.0"):
            load_model(path)

    def test_non_finite_state_entry_is_named(self, tmp_path):
        def poison(state):
            state["2:dense.weights"][0, 0] = np.nan
        path = self.edited_model(load_model(str(FIXTURE_MODEL)), tmp_path, poison)
        with pytest.raises(ModelIOError, match="state entry 2:dense.weights holds nan"):
            load_model(path)

    def test_format_version_1_is_refused_by_number(self, tmp_path):
        path = tmp_path / "model.json"
        doc = json.loads(FIXTURE_MODEL.read_text())
        doc["format_version"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelIOError, match=re.escape(
                "model format version 1 cannot be read (dbdiag reads version 2); "
                "re-train the model")):
            load_model(str(path))

    @pytest.mark.parametrize("steps", [4.5, "4", True])
    def test_window_steps_must_be_an_integer(self, tmp_path, steps):
        doc = json.loads(FIXTURE_MODEL.read_text())
        doc["window_steps"] = steps
        path = self.resealed(doc, tmp_path / "model.json")
        with pytest.raises(ModelIOError, match=re.escape(
                f"window_steps must be an integer, got {steps!r}")):
            load_model(path)

    def test_repeated_feature_name_is_a_model_error(self, tmp_path, capsys):
        doc = json.loads(FIXTURE_MODEL.read_text())
        assert doc["feature_names"] == ["cpu", "io"]
        doc["feature_names"][1] = "cpu"
        path = self.resealed(doc, tmp_path / "model.json")
        with pytest.raises(ModelIOError,
                           match="feature_names: name 'cpu' appears more than once"):
            load_model(path)
        # scoring blames the model (4), not a CSV that matches the fixture (3)
        write_metrics(str(tmp_path / "stats.csv"), fixture_frame())
        assert main(["score", "--model", path, "--stats", str(tmp_path / "stats.csv"),
                     "--out", str(tmp_path / "scores.json")]) == 4
        assert "feature_names: name 'cpu' appears more than once" in capsys.readouterr().err

    @pytest.mark.parametrize("names", ["ci", ["cpu", 7], {"cpu": 0, "io": 1}])
    def test_feature_names_must_be_a_list_of_strings(self, tmp_path, names):
        doc = json.loads(FIXTURE_MODEL.read_text())
        doc["feature_names"] = names
        path = self.resealed(doc, tmp_path / "model.json")
        with pytest.raises(ModelIOError, match="feature_names must be a JSON list "
                                               "of strings"):
            load_model(path)

    @pytest.mark.parametrize("training", [[1, 2], "fit", 3.5],
                             ids=["list", "string", "number"])
    def test_a_training_block_that_is_not_an_object_is_a_model_error(
            self, tmp_path, capsys, training):
        doc = json.loads(FIXTURE_MODEL.read_text())
        doc["training"] = training
        del doc["checksum"]
        doc["checksum"] = json_checksum(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        message = "training must be a JSON object"
        with pytest.raises(ModelIOError, match=message):
            load_model(str(path))
        write_metrics(str(tmp_path / "stats.csv"), fixture_frame())
        assert main(["score", "--model", str(path), "--stats", str(tmp_path / "stats.csv"),
                     "--out", str(tmp_path / "scores.json")]) == 4
        assert message in capsys.readouterr().err

    def test_an_empty_feature_name_is_a_model_error(self, tmp_path, capsys):
        doc = json.loads(FIXTURE_MODEL.read_text())
        doc["feature_names"][1] = ""
        path = self.resealed(doc, tmp_path / "model.json")
        with pytest.raises(ModelIOError, match="feature_names: name 2 is empty"):
            load_model(path)
        write_metrics(str(tmp_path / "stats.csv"), fixture_frame())
        assert main(["score", "--model", path, "--stats", str(tmp_path / "stats.csv"),
                     "--out", str(tmp_path / "scores.json")]) == 4
        assert "feature_names: name 2 is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["c\0pu", "c\x1bpu", "c\ufffepu", "c\uffffpu"])
    def test_a_name_xml_cannot_hold_is_a_model_error(self, tmp_path, name):
        doc = json.loads(FIXTURE_MODEL.read_text())
        doc["feature_names"][0] = name
        path = self.resealed(doc, tmp_path / "model.json")
        with pytest.raises(ModelIOError, match=re.escape(
                f"feature_names: name {name!r} holds a character XML 1.0 cannot hold")):
            load_model(path)

    @pytest.mark.parametrize("target", [b'"shape": [', b'"data": "', b'"dtype": "<f'])
    def test_an_edited_array_field_fails_the_integrity_check(self, tmp_path, target):
        raw = bytearray(FIXTURE_MODEL.read_bytes())
        at = raw.index(target, raw.index(b'"state"')) + len(target)
        at += next(i for i, b in enumerate(raw[at:]) if chr(b).isalnum())
        raw[at] ^= 0x01
        path = tmp_path / "model.json"
        path.write_bytes(raw)
        with pytest.raises(ModelIOError, match="integrity"):
            load_model(str(path))

    def test_wrong_format_marker_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format": "something-else", "version": 1}))
        with pytest.raises(ModelIOError):
            load_model(str(path))

    def test_unparseable_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(ModelIOError):
            load_model(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ModelIOError):
            load_model(str(tmp_path / "absent.json"))


# A 2-epoch fit of BTN-(5)-BN-(3)-BN*-(5*)-BTN* on fixture_frame() with
# TrainConfig(window_steps=4, batch_size=8, max_epochs=2, patience=2, seed=0),
# first written by save_model in model format 1 and converted once to format
# 2 with the same weights. It pins the model file format and the batch-norm
# running statistics it carries.
FIXTURE_MODEL = Path(__file__).parent / "data" / "bn_btn_model.json"


def fixture_frame() -> MetricFrame:
    rng = np.random.default_rng(11)
    t = np.arange(48)
    values = np.column_stack([10.0 + np.sin(t / 3.0) + 0.1 * rng.normal(size=48),
                              5.0 + 0.05 * t + 0.2 * rng.normal(size=48)])
    return MetricFrame(("cpu", "io"), 27_000_000 + t, values)


class TestFixtureModel:
    def test_state_names(self):
        state = load_model(str(FIXTURE_MODEL)).network.get_state()
        assert sorted(state) == [
            "0:btn.beta", "0:btn.gamma", "10:dense_out.bias", "10:dense_out.weights",
            "12:btn_reverse.beta", "12:btn_reverse.gamma", "2:dense.bias",
            "2:dense.weights", "4:bn.beta", "4:bn.gamma", "4:bn.running_mean",
            "4:bn.running_std", "4:bn.updates", "5:dense.bias", "5:dense.weights",
            "7:bn_reverse.beta", "7:bn_reverse.gamma", "7:bn_reverse.running_mean",
            "7:bn_reverse.running_std", "7:bn_reverse.updates",
            "8:dense_reverse.bias", "8:dense_reverse.weights"]
        assert state["4:bn.updates"] == state["7:bn_reverse.updates"] == 4

    def test_resave_gives_identical_bytes(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(load_model(str(FIXTURE_MODEL)), str(path))
        assert path.read_bytes() == FIXTURE_MODEL.read_bytes()

    def test_scores_reproduce_the_recorded_test_mse(self):
        """The last 9 of the 45 windows were the test split.

        The recorded test_mse was scored in float64; scoring now runs the
        network in float32, which moves this mean by about 5e-8 relative, so
        the recorded value is compared at 1e-6. The float32 mean itself is
        pinned exactly, so any change to the scoring arithmetic shows."""
        detector = load_model(str(FIXTURE_MODEL))
        scores = detector.score_frame(fixture_frame()).scores
        assert scores.shape == (45, 2)
        np.testing.assert_allclose(scores[-9:].mean(),
                                   detector.training_meta["test_mse"], rtol=1e-6)
        assert scores[-9:].mean() == 0.14061322984828925


class TestAblation:
    def test_sweep_reports_per_architecture(self, tiny_run):
        frame = tiny_run.scenario.stats
        rows = run_ablation(frame,
                            architectures=("(16)-(6)-(16*)", "not-a-grammar"),
                            config=TrainConfig(**FAST))
        assert rows[0]["architecture"] == "(16)-(6)-(16*)"
        assert np.isfinite(rows[0]["test_mse"])
        assert "error" in rows[1]
