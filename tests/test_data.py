"""CSV ingestion, timestamps, normalization, windowing, and the JSON codec."""

import ast
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

import dbdiag
from dbdiag import (
    TABLE_ARCHITECTURES,
    Detector,
    GlobalNorm,
    MetricFrame,
    build_network,
    iso_to_minute,
    load_metrics,
    load_model,
    make_windows,
    minute_to_iso,
    parse_architecture,
    save_model,
    split_windows,
    write_metrics,
)
from dbdiag.data import json_checksum, json_text, write_json
from dbdiag.errors import ConfigError, DataError


def loop_windows(frame, window_steps, stride):
    """The original per-window loop, kept as the oracle for make_windows."""
    breaks = np.nonzero(np.diff(frame.timestamps) != 1)[0] + 1
    segments = np.split(np.arange(len(frame.timestamps)), breaks)
    chunks, starts = [], []
    for seg in segments:
        n = len(seg) - window_steps + 1
        for off in range(0, max(n, 0), stride):
            idx = seg[off]
            chunks.append(frame.values[idx:idx + window_steps])
            starts.append(idx)
    start_idx = np.asarray(starts, dtype=np.int64)
    return np.stack(chunks), start_idx, frame.timestamps[start_idx]


def gapped_frame(lengths, features=("a", "b", "c")):
    """Contiguous runs of the given lengths, separated by gaps of 7 minutes."""
    ts, t = [], 0
    for n in lengths:
        ts.append(np.arange(t, t + n))
        t += n + 7
    ts = np.concatenate(ts).astype(np.int64)
    values = np.random.default_rng(len(ts)).normal(size=(len(ts), len(features)))
    return MetricFrame(tuple(features), ts, values)


def frame_of(n, start=1000, features=("a", "b"), fill=None, rng=None):
    ts = np.arange(start, start + n, dtype=np.int64)
    if fill is not None:
        values = np.full((n, len(features)), float(fill))
    else:
        rng = rng or np.random.default_rng(0)
        values = rng.normal(size=(n, len(features)))
    return MetricFrame(tuple(features), ts, values)


class TestTimestamps:
    def test_iso_roundtrip(self):
        assert iso_to_minute(minute_to_iso(27_875_520)) == 27_875_520

    def test_minute_to_iso_is_utc(self):
        assert minute_to_iso(0) == "1970-01-01T00:00:00Z"

    @pytest.mark.parametrize("text", [
        "2023-01-01T00:00:00Z",
        "2023-01-01T00:00:00+00:00",
        "2023-01-01 00:00:00",
        "1672531200",        # epoch seconds
        "1672531200.0",
    ])
    def test_accepted_formats_agree(self, text, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(f"timestamp,a\n{text},1.0\n"
                        f"2023-01-01T00:01:00Z,2.0\n")
        frame = load_metrics(str(path))
        assert frame.timestamps[0] == 27_875_520

    @pytest.mark.parametrize("minute", [-1_035_593_280, 4_223_371_679])
    def test_first_and_last_writable_minutes_roundtrip(self, minute):
        text = minute_to_iso(minute)
        assert text in ("0001-01-01T00:00:00Z", "9999-12-31T23:59:00Z")
        assert iso_to_minute(text) == minute

    @pytest.mark.parametrize("text", [
        "1e300", "-1e300", "60000000000000", "253402300800",
        "0001-01-01T00:00:00+01:00"])
    def test_instant_outside_years_1_to_9999_names_text_and_row(self, text, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(f"timestamp,a\n2023-01-01T00:00:00Z,1.0\n{text},2.0\n")
        with pytest.raises(DataError, match=re.escape(f"{text!r} in row 3 is outside")):
            load_metrics(str(path))
        with pytest.raises(DataError, match="outside the years 1 to 9999"):
            iso_to_minute(text)

    @pytest.mark.parametrize("text,message", [
        ("1e300", "timestamp '1e300' is outside the years 1 to 9999"),
        ("2023-01-01T00:00:30Z", "timestamp '2023-01-01T00:00:30Z' is not minute-aligned"),
        ("yesterday", "unparseable timestamp 'yesterday'"),
    ])
    def test_iso_to_minute_errors_name_only_the_text(self, text, message):
        with pytest.raises(DataError) as info:
            iso_to_minute(text)
        assert str(info.value) == message

    def test_subminute_timestamp_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("timestamp,a\n1672531230,1.0\n")
        with pytest.raises(DataError):
            load_metrics(str(path))


class TestLoadMetrics:
    def test_roundtrip(self, tmp_path, rng):
        frame = frame_of(10, rng=rng)
        path = str(tmp_path / "m.csv")
        write_metrics(path, frame)
        back = load_metrics(path)
        assert back.metric_names == frame.metric_names
        np.testing.assert_array_equal(back.timestamps, frame.timestamps)
        np.testing.assert_array_equal(back.values, frame.values)

    def test_rows_are_sorted_on_load(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("timestamp,a\n"
                        "2023-01-01T00:02:00Z,3.0\n"
                        "2023-01-01T00:00:00Z,1.0\n"
                        "2023-01-01T00:01:00Z,2.0\n")
        frame = load_metrics(str(path))
        np.testing.assert_array_equal(frame.values[:, 0], [1.0, 2.0, 3.0])

    def test_duplicate_timestamps_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("timestamp,a\n"
                        "2023-01-01T00:00:00Z,1.0\n"
                        "2023-01-01T00:00:00Z,2.0\n")
        with pytest.raises(DataError):
            load_metrics(str(path))

    def test_non_numeric_cell_names_the_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("timestamp,a\n"
                        "2023-01-01T00:00:00Z,1.0\n"
                        "2023-01-01T00:01:00Z,oops\n")
        with pytest.raises(DataError, match="row 3"):
            load_metrics(str(path))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_row_and_column(self, bad, tmp_path):
        # rows arrive out of order, so the row named is the file's, not the
        # sorted position
        path = tmp_path / "m.csv"
        path.write_text("timestamp,a,b\n"
                        "2023-01-01T00:02:00Z,1.0,2.0\n"
                        "\n"
                        f"2023-01-01T00:00:00Z,3.0,{bad}\n"
                        "2023-01-01T00:01:00Z,4.0,5.0\n")
        with pytest.raises(DataError, match=f"m.csv: non-finite value {bad} "
                                            f"in row 4, column 'b'"):
            load_metrics(str(path))

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("time,a\n2023-01-01T00:00:00Z,1.0\n")
        with pytest.raises(DataError):
            load_metrics(str(path))

    def test_column_lookup_errors_list_names(self):
        frame = frame_of(5)
        with pytest.raises(DataError, match="a, b"):
            frame.column("zz")


class TestGlobalNorm:
    def test_two_point_feature_maps_to_unit_range(self):
        frame = MetricFrame(("a",), np.array([0, 1], dtype=np.int64),
                            np.array([[10.0], [20.0]]))
        norm = GlobalNorm.fit(frame)
        np.testing.assert_allclose(norm.apply(frame.values)[:, 0], [-1.0, 1.0])

    def test_constant_feature_reported_by_name(self):
        frame = MetricFrame(("ok", "dead"), np.arange(4, dtype=np.int64),
                            np.column_stack([np.arange(4.0), np.full(4, 7.0)]))
        with pytest.raises(ConfigError, match="dead"):
            GlobalNorm.fit(frame)


class TestWindows:
    def test_count_for_contiguous_frame(self):
        ws = make_windows(frame_of(100), window_steps=30)
        assert len(ws) == 71
        assert ws.windows.shape == (71, 30, 2)

    def test_stride_thins_the_set(self):
        ws = make_windows(frame_of(100), window_steps=30, stride=10)
        assert len(ws) == 8
        np.testing.assert_array_equal(ws.start_indices[:3], [0, 10, 20])

    def test_gap_segments_never_mix(self):
        ts = np.concatenate([np.arange(0, 40), np.arange(100, 140)]).astype(np.int64)
        frame = MetricFrame(("a",), ts, np.arange(80.0).reshape(-1, 1))
        ws = make_windows(frame, window_steps=35)
        # each 40-minute segment yields 6 windows; none straddles the gap
        assert len(ws) == 12
        spans = ws.start_timestamps + 34
        assert all((s <= 39) or (ws.start_timestamps[i] >= 100)
                   for i, s in enumerate(spans))

    def test_window_values_match_source_rows(self):
        frame = frame_of(40)
        ws = make_windows(frame, window_steps=5)
        np.testing.assert_array_equal(ws.windows[7], frame.values[7:12])

    @pytest.mark.parametrize("lengths", [
        (100,),             # no gap
        (60, 45),           # two segments
        (50, 12, 70),       # three, the middle one shorter than a window
        (80, 33, 20),       # the last one exactly one window long
        (15, 41),           # the first one too short to yield a window
    ])
    @pytest.mark.parametrize("stride", [1, 3, 10])
    def test_matches_the_window_loop_exactly(self, lengths, stride):
        frame = gapped_frame(lengths)
        ws = make_windows(frame, window_steps=20, stride=stride)
        windows, starts, stamps = loop_windows(frame, 20, stride)
        assert ws.windows.shape == windows.shape
        assert np.array_equal(ws.windows, windows)
        assert np.array_equal(ws.start_indices, starts)
        assert ws.start_indices.dtype == np.int64
        assert np.array_equal(ws.start_timestamps, stamps)

    @pytest.mark.parametrize("stride", [1, 3])
    def test_windows_without_a_gap_are_a_read_only_view(self, stride):
        frame = frame_of(100)
        ws = make_windows(frame, window_steps=30, stride=stride)
        assert not ws.windows.flags.writeable
        assert np.shares_memory(ws.windows, frame.values)

    def test_gapped_windows_are_a_copy(self):
        frame = gapped_frame((40, 40))
        ws = make_windows(frame, window_steps=30)
        assert not np.shares_memory(ws.windows, frame.values)

    def test_all_segments_too_short_is_an_error(self):
        with pytest.raises(DataError, match="longest run"):
            make_windows(frame_of(10), window_steps=30)
        with pytest.raises(DataError, match="longest run: 25 minutes"):
            make_windows(gapped_frame((20, 25, 3)), window_steps=30)

    def test_bad_knobs_rejected(self):
        with pytest.raises(ConfigError):
            make_windows(frame_of(50), window_steps=1)
        with pytest.raises(ConfigError):
            make_windows(frame_of(50), window_steps=10, stride=0)


class TestSplit:
    def test_floor_counts_with_remainder_to_train(self):
        ws = make_windows(frame_of(100), window_steps=30)
        split = split_windows(ws)  # 71 windows
        assert (len(split.train), len(split.val), len(split.test)) == (43, 14, 14)

    def test_split_is_chronological(self):
        ws = make_windows(frame_of(100), window_steps=30)
        split = split_windows(ws)
        assert split.train.start_timestamps[-1] < split.val.start_timestamps[0]
        assert split.val.start_timestamps[-1] < split.test.start_timestamps[0]

    def test_empty_slice_rejected(self):
        ws = make_windows(frame_of(31), window_steps=30)  # 2 windows
        with pytest.raises(ConfigError):
            split_windows(ws)

    @pytest.mark.parametrize("fractions", [
        (0.6, float("nan"), 0.2), (float("inf"), 0.2, 0.2), (0.6, 0.2, float("-inf"))])
    def test_non_finite_fraction_rejected(self, fractions):
        ws = make_windows(frame_of(100), window_steps=30)
        with pytest.raises(ConfigError, match="split needs three finite"):
            split_windows(ws, fractions)

    def test_fractions_must_sum_to_one(self):
        ws = make_windows(frame_of(100), window_steps=30)
        with pytest.raises(ConfigError):
            split_windows(ws, (0.5, 0.2, 0.2))


def as_lists(payload):
    """``payload`` with every ndarray replaced by its ``tolist()``."""
    if isinstance(payload, np.ndarray):
        return payload.tolist()
    if isinstance(payload, dict):
        return {key: as_lists(value) for key, value in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [as_lists(item) for item in payload]
    return payload


def oracle_text(payload) -> str:
    """The layout every JSON file had when ``json.dump`` wrote it."""
    return json.dumps(as_lists(payload), indent=2, sort_keys=True) + "\n"


def oracle_checksum(payload) -> str:
    """sha256 of the compact text model checksums were first taken over."""
    return hashlib.sha256(json.dumps(as_lists(payload), sort_keys=True,
                                     separators=(",", ":")).encode()).hexdigest()


CODEC_PAYLOADS = {
    "empty_object": {},
    "empty_list": [],
    "empty_arrays": {"a": np.zeros(0), "b": np.zeros((0, 3)), "c": np.zeros((3, 0)),
                     "d": []},
    "zero_d_int_array": {"0:bn.updates": np.array(7), "n": np.array(-2.5)},
    "awkward_floats": {"x": np.array([-0.0, 5e-324, 1e16, 1e-7, 1e22, np.nan,
                                      np.inf, -np.inf, 0.1, 1e300])},
    "matrix_in_nested_dicts": {"z": {"y": {"m": np.arange(12.0).reshape(3, 4) / 7,
                                           "i": np.arange(6).reshape(2, 3)}},
                               "a": 1},
    "float32_and_bool_arrays": {"f": np.linspace(0, 1, 5, dtype=np.float32),
                                "b": np.array([[True, False], [False, True]])},
    "three_d_array": np.arange(24.0).reshape(2, 3, 4),
    "list_of_arrays": [np.arange(3), np.arange(2.0), np.zeros((2, 2))],
    "non_ascii_names": {"feature_names": ["cpu_ü", "日本", "a,b", "[c]", 'q"r', "s\nt"],
                        "naïve": "☃"},
    "python_lists": [[1, 2.5, None, True], [False, -1e-300, float("nan"), 3], [{}]],
    "irregular_lists": [[1, [2, 3]], [], [[]], [4], (5, 6.0), [{"k": [1]}],
                        [["s", "t,]"], [1.5, "x"]]],
    "history_rows": [{"epoch": i, "val_mse": i / 3, "note": None} for i in range(3)],
    "top_level_scalars": [1.5, "text", None, float("inf"), -7],
    "bare_string": "report",
    "bare_nan": float("nan"),
}


class TestJsonCodec:
    @pytest.mark.parametrize("payload", list(CODEC_PAYLOADS.values()),
                             ids=list(CODEC_PAYLOADS))
    def test_text_matches_json_dumps(self, payload, tmp_path):
        assert json_text(payload) == oracle_text(payload)
        path = tmp_path / "out.json"
        write_json(str(path), payload)
        assert path.read_text() == oracle_text(payload)

    @pytest.mark.parametrize("payload", list(CODEC_PAYLOADS.values()),
                             ids=list(CODEC_PAYLOADS))
    def test_checksum_is_over_the_compact_json_dumps_text(self, payload):
        assert json_checksum(payload) == oracle_checksum(payload)

    @pytest.mark.parametrize("value", list(CODEC_PAYLOADS.values()),
                             ids=list(CODEC_PAYLOADS))
    def test_checksum_member_is_taken_over_the_rest(self, value, tmp_path):
        payload = {"value": value, "b": np.arange(6.0).reshape(2, 3), "ü": "z"}
        path = tmp_path / "out.json"
        write_json(str(path), payload, checksum_key="checksum")
        assert path.read_text() == oracle_text(
            {**payload, "checksum": oracle_checksum(payload)})

    def test_non_string_keys_are_refused(self):
        with pytest.raises(TypeError, match="keys must be strings"):
            json_text({"a": {1: 2.0}})

    @pytest.mark.parametrize("architecture", TABLE_ARCHITECTURES)
    def test_save_model_writes_the_json_dumps_layout(self, architecture, tmp_path):
        rng = np.random.default_rng(3)
        names = ("cpu_ü", "io")
        network = build_network(parse_architecture(architecture), 4, len(names), rng)
        norm = GlobalNorm(names, rng.normal(size=2), rng.random(2) + 0.5)
        detector = Detector(network, norm, 4, names, {"seed": 0, "val_mse": 0.25})
        path = tmp_path / "model.json"
        save_model(detector, str(path))
        payload = {
            "format": "dbdiag-model",
            "format_version": 1,
            "architecture": architecture,
            "window_steps": 4,
            "feature_names": list(names),
            "normalization": {"mean": norm.mean, "std": norm.std},
            "state": network.get_state(),
            "training": {"seed": 0, "val_mse": 0.25},
        }
        payload["checksum"] = oracle_checksum(payload)
        assert path.read_text() == oracle_text(payload)
        loaded = load_model(str(path)).network.get_state()
        for name, value in network.get_state().items():
            np.testing.assert_array_equal(loaded[name], value)


def test_only_data_py_calls_json_dump():
    """Every JSON file is written by data.py's one encoder."""
    package = Path(dbdiag.__file__).parent
    callers = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "data.py" and path.parent == package:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"):
                callers.append(f"{path.relative_to(package)}:{node.lineno}")
            if (isinstance(node, ast.ImportFrom) and node.module == "json"
                    and any(a.name in ("dump", "dumps") for a in node.names)):
                callers.append(f"{path.relative_to(package)}:{node.lineno}")
    assert callers == []
