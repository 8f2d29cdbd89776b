"""CSV ingestion, timestamps, normalization, windowing, and the JSON codec."""

import ast
import base64
import csv
import hashlib
import json
import re
from datetime import datetime, timedelta, timezone
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
from dbdiag.cli import main
from dbdiag.data import (
    _CSV_BLOCK_ROWS,
    FIRST_MINUTE,
    LAST_MINUTE,
    decode_array,
    encode_array,
    json_checksum,
    json_text,
    minutes_to_iso,
    stamps_to_minutes,
    write_csv_rows,
    write_json,
    write_minute_csv,
)
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
    return np.stack(chunks), frame.timestamps[np.asarray(starts, dtype=np.int64)]


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

    @pytest.mark.parametrize("text, message", [
        ("", "m.csv is empty"),
        ("\ntimestamp,a\n2023-01-01T00:00:00Z,1\n", "m.csv: empty header"),
        ("timestamp\n2023-01-01T00:00:00Z\n",
         "m.csv: metric names: there must be at least one name"),
        ("timestamp,a, a\n2023-01-01T00:00:00Z,1,2\n",
         "m.csv: metric names: name 'a' appears more than once"),
        ("timestamp,a,b\n", "m.csv: no data rows"),
        ("timestamp,a,\n2023-01-01T00:00:00Z,1,2\n",
         "m.csv: metric names: name 2 is empty"),
        ("timestamp, ,a\n2023-01-01T00:00:00Z,1,2\n",
         "m.csv: metric names: name 1 is empty"),
    ], ids=["empty_file", "blank_first_line", "no_metric_columns",
            "duplicate_after_stripping", "header_only", "empty_last_name",
            "blank_first_name"])
    def test_a_bad_header_is_a_data_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=re.escape(message)):
            load_metrics(str(path))
        assert main(["train", "--stats", str(path),
                     "--model", str(tmp_path / "model.json")]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["a\0b", "a\x01b", "a\x0bb", "a\x1fb",
                                      "a\ufffeb", "a\uffffb"])
    def test_a_name_xml_cannot_hold_is_refused(self, tmp_path, name):
        path = tmp_path / "m.csv"
        path.write_text(f"timestamp,ok,{name}\n2023-01-01T00:00:00Z,1.0,2.0\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(
                f"m.csv: metric names: name {name!r} holds a character XML 1.0 "
                f"cannot hold")):
            load_metrics(str(path))

    def test_tab_and_line_breaks_are_names_xml_can_hold(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text('timestamp,a\tb,"c\nd","e\rf"\n2023-01-01T00:00:00Z,1,2,3\n')
        assert load_metrics(str(path)).metric_names == ("a\tb", "c\nd", "e\rf")

    def test_column_lookup_errors_list_names(self):
        frame = frame_of(5)
        with pytest.raises(DataError, match="a, b"):
            frame.column("zz")


def loop_parse_timestamp(text):
    """The original per-stamp parser: float() first, then fromisoformat."""
    text = text.strip()
    try:
        seconds = float(text)
    except ValueError:
        iso = text[:-1] + "+00:00" if text.endswith("Z") else text
        dt = datetime.fromisoformat(iso)
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        seconds = dt.timestamp()
    minutes, rem = divmod(seconds, 60.0)
    assert rem == 0.0
    return int(minutes)


def loop_load_metrics(path):
    """The original row loop of load_metrics (csv.reader and float() per
    cell), kept as the oracle for the bulk parse of well-formed files."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        names = tuple(h.strip() for h in next(reader)[1:])
        stamps, rows = [], []
        for row in reader:
            if row:
                stamps.append(loop_parse_timestamp(row[0]))
                rows.append([float(v) for v in row[1:]])
    order = np.argsort(np.asarray(stamps, dtype=np.int64), kind="stable")
    return (names, np.asarray(stamps, dtype=np.int64)[order],
            np.asarray(rows, dtype=np.float64)[order])


def loop_write_minute_csv(path, key, minutes, names, values):
    """The original row writer of write_minute_csv, kept as its oracle."""
    rows = zip(np.asarray(minutes).tolist(), np.asarray(values, dtype=np.float64))
    write_csv_rows(path, [key, *names],
                   ([datetime.fromtimestamp(m * 60, tz=timezone.utc).isoformat()
                     .replace("+00:00", "Z"), *map(repr, row.tolist())] for m, row in rows))


# finite floats whose text is hard to read back: subnormals, the extremes,
# signed zeros and values one ulp from round decimals
AWKWARD = np.array([5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                    1e308, -1e308, 1.7976931348623157e308, -0.0, 0.0, 0.1,
                    0.30000000000000004, 1e-7, 1e16, 123456789012345680.0,
                    9007199254740993.0])


def random_csv(path, seed, stamp_forms=("iso",)):
    """A shuffled, gapped CSV of awkward and random values; returns the text.

    ``stamp_forms`` cycles over the rows: "iso" (Z), "epoch", "offset"
    (+HH:MM or -HH:MM, the same instant), "naive" and "space".
    """
    rng = np.random.default_rng(seed)
    n, k = 300, 4
    minutes = 27_875_520 + np.cumsum(rng.integers(1, 4, size=n))
    values = rng.normal(size=(n, k)) * 10.0 ** rng.integers(-300, 300, size=(n, k))
    values.flat[rng.choice(n * k, size=len(AWKWARD), replace=False)] = AWKWARD
    lines = []
    for i in rng.permutation(n):
        m = int(minutes[i])
        form = stamp_forms[i % len(stamp_forms)]
        iso = minute_to_iso(m)
        if form == "epoch":
            stamp = str(m * 60)
        elif form == "offset":
            shift = int(rng.integers(-14 * 60, 14 * 60 + 1))
            local = (datetime.fromtimestamp(m * 60, tz=timezone.utc)
                     + timedelta(minutes=shift))
            sign, mag = "+-"[shift < 0], abs(shift)
            stamp = f"{local:%Y-%m-%dT%H:%M:%S}{sign}{mag // 60:02d}:{mag % 60:02d}"
        elif form == "naive":
            stamp = iso[:-1]
        elif form == "space":
            stamp = iso[:-1].replace("T", " ")
        else:
            stamp = iso
        lines.append(",".join([stamp, *map(repr, values[i].tolist())]))
    text = "timestamp,a,b,c,d\n" + "\n".join(lines) + "\n"
    path.write_text(text)
    return text


class TestBulkParse:
    @pytest.mark.parametrize("forms", [("iso",), ("epoch",), ("offset",),
                                       ("iso", "epoch", "offset", "naive", "space")])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bits_match_the_row_loop(self, tmp_path, seed, forms):
        path = tmp_path / "m.csv"
        random_csv(path, seed, forms)
        names, ts, vals = loop_load_metrics(str(path))
        frame = load_metrics(str(path))
        assert frame.metric_names == names
        assert frame.timestamps.dtype == np.int64
        assert np.array_equal(frame.timestamps, ts)
        assert frame.values.dtype == np.float64 and frame.values.flags.c_contiguous
        assert np.array_equal(frame.values.view(np.uint64), vals.view(np.uint64))

    def test_crlf_blank_lines_and_quoted_cells(self, tmp_path):
        path = tmp_path / "m.csv"
        text = random_csv(path, 5, ("iso", "epoch"))
        lines = text.splitlines()
        lines[3] = ",".join(f'"{cell}"' for cell in lines[3].split(","))
        lines.insert(7, "")
        lines.insert(9, "")
        path.write_bytes(("\r\n".join(['"timestamp","a",b,c,d', *lines[1:]]) + "\r\n\r\n")
                         .encode())
        names, ts, vals = loop_load_metrics(str(path))
        frame = load_metrics(str(path))
        assert frame.metric_names == names == ("a", "b", "c", "d")
        assert np.array_equal(frame.timestamps, ts)
        assert np.array_equal(frame.values.view(np.uint64), vals.view(np.uint64))

    def test_a_hash_line_is_an_error_not_a_comment(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("timestamp,a\n2023-01-01T00:00:00Z,1.0\n# a note\n")
        with pytest.raises(DataError, match="row 3 has 1 fields, expected 2"):
            load_metrics(str(path))
        path.write_text("timestamp,a\n#2023-01-01T00:00:00Z,1.0\n")
        with pytest.raises(DataError, match="unparseable timestamp "
                                            "'#2023-01-01T00:00:00Z' in row 2"):
            load_metrics(str(path))

    @pytest.mark.parametrize("row", ["2023-01-01T00:01:00Z,1.0,2.0",
                                     "2023-01-01T00:01:00Z", "   "])
    def test_a_ragged_row_names_row_and_field_count(self, tmp_path, row):
        path = tmp_path / "m.csv"
        path.write_text(f"timestamp,a\n2023-01-01T00:00:00Z,1.0\n\n{row}\n")
        fields = len(next(csv.reader([row])))
        with pytest.raises(DataError,
                           match=f"m.csv: row 4 has {fields} fields, expected 2"):
            load_metrics(str(path))

    @pytest.mark.parametrize("cell", ["1_000", "\u0661\u0662", "", "0x10", "1.0.0"])
    def test_what_float_reads_but_the_bulk_parse_does_not_is_refused(self, tmp_path, cell):
        path = tmp_path / "m.csv"
        path.write_text(f"timestamp,a,b\n2023-01-01T00:00:00Z,1.0,2.0\n"
                        f"2023-01-01T00:01:00Z,3.0,{cell}\n", encoding="utf-8")
        with pytest.raises(DataError,
                           match=re.escape(f"non-numeric value {cell!r} in row 3")):
            load_metrics(str(path))

    @pytest.mark.parametrize("text", ["now", "today", "NaT", "nat", "20230101T000000",
                                      "2023-13-01T00:00:00Z", "--5",
                                      "2023-01-01T00:00:00ZZ",
                                      "2023-01-01T00:00:00+00:00Z",
                                      "-0001-01-01T00:00:00Z", "10000-01-01T00:00:00Z",
                                      "18446744073709551616-01-01T00:00:00Z"])
    def test_unparseable_stamps_name_text_and_row(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_text(f"timestamp,a\n2023-01-01T00:00:00Z,1.0\n{text},2.0\n")
        with pytest.raises(DataError, match=re.escape(f"unparseable timestamp {text!r} "
                                                      f"in row 3")):
            load_metrics(str(path))

    @pytest.mark.parametrize("text", ["2023-01-01T00:01:00.5Z",
                                      "2023-01-01T00:01:00.000001",
                                      "1672531260.5", "inf", "nan"])
    def test_a_fraction_of_a_minute_is_not_minute_aligned(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_text(f"timestamp,a\n2023-01-01T00:00:00Z,1.0\n{text},2.0\n")
        with pytest.raises(DataError, match=re.escape(f"{text!r} in row 3 is not minute")):
            load_metrics(str(path))

    def test_problems_are_named_in_a_fixed_order(self, tmp_path):
        # cells first, then timestamps, then non-finite values, whatever
        # their rows
        rows = ["2023-01-01T00:00:00Z,1.0", "", "2023-01-01T00:01:00Z,inf",
                "2023-01-01T00:02:30Z,2.0", "2023-01-01T00:03:00Z,oops"]
        path = tmp_path / "m.csv"
        for message in ["non-numeric value 'oops' in row 6",
                        "'2023-01-01T00:02:30Z' in row 5 is not minute-aligned",
                        "non-finite value inf in row 4, column 'a'"]:
            path.write_text("\n".join(["timestamp,a", *rows]) + "\n")
            with pytest.raises(DataError, match=re.escape(message)):
                load_metrics(str(path))
            rows.pop()

    def test_stamps_to_minutes_names_the_first_bad_stamp(self):
        good = ["2023-01-01T00:00:00Z", "1672531260", "2023-01-01T00:02:00+00:00"]
        np.testing.assert_array_equal(dbdiag.data.stamps_to_minutes(good),
                                      [27_875_520, 27_875_521, 27_875_522])
        for bad, message in [
                ("yesterday", "unparseable timestamp {}"),
                ("1e300", "timestamp {} is outside the years 1 to 9999"),
                ("2023-01-01T00:00:30Z", "timestamp {} is not minute-aligned")]:
            for after in ["also bad", "2023-99-01", "1e300"]:
                with pytest.raises(DataError) as info:
                    dbdiag.data.stamps_to_minutes([*good, bad, after] + good * 50)
                assert str(info.value) == message.format(repr(bad))
                with pytest.raises(DataError) as info:
                    dbdiag.data.stamps_to_minutes([*good, bad, after], [2, 3, 5, 8, 9])
                assert str(info.value) == message.format(f"{bad!r} in row 8")
        for at in (0, 57, 119):
            for bad in ("2023-99-01", "1.2.3"):
                stamps = good * 40
                stamps[at] = bad
                with pytest.raises(DataError) as info:
                    dbdiag.data.stamps_to_minutes(stamps, range(2, 122))
                assert str(info.value) == f"unparseable timestamp {bad!r} in row {at + 2}"


class TestCanonicalStamps:
    """A stamp in the form dbdiag writes, ``YYYY-MM-DDTHH:MM:00Z``, is read by
    arithmetic; it must read exactly as the general parsers read it, and a
    stamp of that shape whose fields name no minute must fail as before."""

    def test_random_minutes_read_as_the_row_loop_reads_them(self):
        rng = np.random.default_rng(22)
        minutes = rng.integers(FIRST_MINUTE, LAST_MINUTE + 1, size=3000)
        stamps = minutes_to_iso(minutes)
        assert np.array_equal(stamps_to_minutes(stamps), minutes)
        assert [loop_parse_timestamp(s) for s in stamps] == minutes.tolist()
        # "+00:00" in place of "Z" sends the same instants through datetime64
        offset = stamps_to_minutes([s[:-1] + "+00:00" for s in stamps])
        assert np.array_equal(offset, minutes)

    @pytest.mark.parametrize("text", [
        "0001-01-01T00:00:00Z", "9999-12-31T23:59:00Z", "2000-02-29T00:00:00Z",
        "2024-02-29T00:00:00Z", "1900-02-28T23:59:00Z", " 2023-03-01T00:00:00Z\t"])
    def test_edges_read_as_the_row_loop_reads_them(self, text):
        assert stamps_to_minutes([text]).tolist() == [loop_parse_timestamp(text)]

    @pytest.mark.parametrize("text,message", [
        ("2023-00-10T00:00:00Z", "unparseable timestamp {}"),
        ("2023-13-10T00:00:00Z", "unparseable timestamp {}"),
        ("2023-01-00T00:00:00Z", "unparseable timestamp {}"),
        ("2023-01-32T00:00:00Z", "unparseable timestamp {}"),
        ("1900-02-29T00:00:00Z", "unparseable timestamp {}"),
        ("2023-02-29T00:00:00Z", "unparseable timestamp {}"),
        ("2023-04-31T00:00:00Z", "unparseable timestamp {}"),
        ("2023-01-01T24:00:00Z", "unparseable timestamp {}"),
        ("2023-01-01T00:60:00Z", "unparseable timestamp {}"),
        ("2023-01-01t00:00:00Z", "unparseable timestamp {}"),
        ("2023-01-01T00:00:00z", "unparseable timestamp {}"),
        ("2023-01-01T00:00:30Z", "timestamp {} is not minute-aligned"),
        ("0000-01-01T00:00:00Z", "timestamp {} is outside the years 1 to 9999")])
    def test_fields_that_name_no_minute_fail_as_the_general_path_fails(self, text, message):
        with pytest.raises(DataError) as info:
            stamps_to_minutes([text])
        assert str(info.value) == message.format(repr(text))
        # in a column of every form, before and after other bad stamps
        good = ["2023-01-01T00:00:00Z", "2023-01-01T05:31:00+05:30", "1672531320",
                "2023-01-01T00:03:00Z"]
        for other, other_message in [
                ("yesterday", "unparseable timestamp {}"),
                ("2023-01-01T00:01:30+05:30", "timestamp {} is not minute-aligned"),
                ("0000-12-31T23:59:00Z", "timestamp {} is outside the years 1 to 9999")]:
            for first, first_message, second in [(text, message, other),
                                                 (other, other_message, text)]:
                stamps = good * 30 + [first] + good * 20 + [second] + good
                with pytest.raises(DataError) as info:
                    stamps_to_minutes(stamps, range(2, 2 + len(stamps)))
                assert str(info.value) == first_message.format(f"{first!r} in row 122")

    def test_a_column_of_every_form_reads_as_the_row_loop_reads_it(self):
        rng = np.random.default_rng(5)
        minutes = rng.integers(FIRST_MINUTE + 1440, LAST_MINUTE - 1440, size=400)
        forms = [minutes_to_iso(minutes[:200]),
                 [f"{s[:-1]}+05:30" for s in minutes_to_iso(minutes[200:300] + 330)],
                 [str(int(m) * 60) for m in minutes[300:]]]
        stamps = np.array(sum(forms, []))[rng.permutation(400)]
        want = [loop_parse_timestamp(s) for s in stamps]
        assert stamps_to_minutes(stamps).tolist() == want


class TestCanonicalCalendar:
    """A canonical stamp takes its day from NumPy's month calendar; it must
    read exactly as its ``+00:00`` spelling, which ``datetime64`` parses."""

    @staticmethod
    def outcome(stamp: str):
        """The minute a lone stamp reads as, or its error text with the stamp
        itself left out."""
        try:
            return int(stamps_to_minutes([stamp])[0])
        except DataError as exc:
            return str(exc).replace(repr(stamp), "<stamp>")

    def test_every_day_of_a_400_year_cycle(self):
        days = np.arange(np.datetime64("1601-01-01"), np.datetime64("2001-01-01"))
        assert len(days) == 146_097
        step = np.arange(len(days))
        minutes = (days.astype("datetime64[m]").astype(np.int64)
                   + step * 7 % 24 * 60 + step * 13 % 60)
        texts = np.datetime_as_string(minutes.astype("datetime64[m]"), unit="s")
        canonical = stamps_to_minutes(np.char.add(texts, "Z"))
        assert np.array_equal(canonical, stamps_to_minutes(np.char.add(texts, "+00:00")))
        assert np.array_equal(canonical, minutes)

    @pytest.mark.parametrize("year", [1900, 2000, 2023, 2024])
    def test_the_last_days_of_each_month(self, year):
        for month in range(1, 13):
            for day in (29, 30, 31):
                stamp = f"{year}-{month:02d}-{day}T07:45:00"
                assert self.outcome(stamp + "Z") == self.outcome(stamp + "+00:00"), stamp
        leap = year in (2000, 2024)
        assert isinstance(self.outcome(f"{year}-02-29T07:45:00Z"), int) == leap


class TestBulkWrite:
    @pytest.mark.parametrize("names", [("a", "b", "c"), ("a,b", 'q"r'), ()])
    def test_bytes_match_the_row_writer(self, tmp_path, names):
        rng = np.random.default_rng(len(names))
        minutes = np.array([-1_035_593_280, -1_035_593_279, 0, 27_875_520,
                            4_223_371_678, 4_223_371_679])
        values = rng.normal(size=(len(minutes), len(names))) * 1e3
        specials = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308, 0.1]
        values.flat[:len(specials)] = specials[:values.size]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_minute_csv(str(got), "timestamp", minutes, names, values)
        loop_write_minute_csv(str(want), "timestamp", minutes, names, values)
        assert got.read_bytes() == want.read_bytes()
        assert got.read_bytes().startswith(b"timestamp")
        assert b"0001-01-01T00:00:00Z" in got.read_bytes()
        assert b"9999-12-31T23:59:00Z" in got.read_bytes()

    def test_blocks_join_into_the_csv_writer_bytes(self, tmp_path):
        """A frame that ends one row past the second block boundary writes
        the bytes ``csv.writer`` writes for it row by row."""
        rows = 2 * _CSV_BLOCK_ROWS + 1
        minutes = 27_875_520 + np.arange(rows)
        values = np.random.default_rng(4).normal(size=(rows, 3)) * 1e3
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_minute_csv(str(got), "timestamp", minutes, ("a", "b", "c"), values)
        loop_write_minute_csv(str(want), "timestamp", minutes, ("a", "b", "c"), values)
        assert got.read_bytes() == want.read_bytes()
        assert got.read_bytes().count(b"\r\n") == rows + 1

    def test_stamps_equal_the_datetime_spelling(self):
        minutes = np.random.default_rng(0).integers(-1_035_593_280, 4_223_371_680, 1000)
        minutes[:2] = -1_035_593_280, 4_223_371_679
        want = [datetime.fromtimestamp(m * 60, tz=timezone.utc).isoformat()
                .replace("+00:00", "Z") for m in minutes.tolist()]
        assert minutes_to_iso(minutes) == want
        assert [minute_to_iso(m) for m in minutes] == want

    @pytest.mark.parametrize("minute", [-1_035_593_281, 4_223_371_680])
    def test_minutes_outside_years_1_to_9999_are_refused(self, minute):
        with pytest.raises(DataError, match="outside the years 1 to 9999"):
            minutes_to_iso(np.array([0, minute]))


class TestArrayCodec:
    @pytest.mark.parametrize("value", [
        np.array([5e-324, -0.0, np.nan, np.inf, 1e308]), np.array(4), np.zeros((0, 3)),
        np.arange(12.0).reshape(3, 4).T, np.array([[True, False]]),
        np.linspace(0, 1, 5, dtype=np.float32), np.arange(6, dtype=">i4").reshape(2, 3)])
    def test_round_trip_keeps_bits_dtype_and_shape(self, value):
        entry = encode_array(value)
        assert entry["dtype"].startswith(("<", "|"))
        back = decode_array(json.loads(json.dumps(entry)))
        assert back.shape == value.shape
        assert back.dtype == value.dtype.newbyteorder("<")
        assert np.array_equal(back, value, equal_nan=value.dtype.kind == "f")

    @pytest.mark.parametrize("edit", [
        {"dtype": "O"}, {"dtype": "<U3"}, {"dtype": "nonsense"}, {"data": "AAAA!"},
        {"shape": [3]}, {"shape": "2"}, {"data": "AAAAAAAAAA=="}])
    def test_malformed_entry_is_refused(self, edit):
        entry = {**encode_array(np.arange(2.0)), **edit}
        with pytest.raises((TypeError, ValueError)):
            decode_array(entry)


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
        np.testing.assert_array_equal(ws.start_timestamps[:3], [1000, 1010, 1020])

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
        windows, stamps = loop_windows(frame, 20, stride)
        assert ws.windows.shape == windows.shape
        assert np.array_equal(ws.windows, windows)
        assert np.array_equal(ws.start_timestamps, stamps)
        assert ws.start_timestamps.dtype == np.int64

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


def oracle_text(payload) -> str:
    """The layout every JSON file had when ``json.dump`` wrote it."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def array_entry(value: np.ndarray) -> dict:
    """A model file's stored array: base64 of its little-endian C-order bytes."""
    little = np.ascontiguousarray(value, dtype=value.dtype.newbyteorder("<"))
    return {"data": base64.b64encode(little.tobytes()).decode(),
            "dtype": little.dtype.str, "shape": list(value.shape)}


def oracle_checksum(payload) -> str:
    """sha256 of the compact text model checksums were first taken over."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True,
                                     separators=(",", ":")).encode()).hexdigest()


CODEC_PAYLOADS = {
    "empty_object": {},
    "empty_list": [],
    "empty_arrays": {"a": [], "b": [], "c": [[], [], []], "d": []},
    "zero_d_int_array": {"0:bn.updates": 7, "n": -2.5},
    "awkward_floats": {"x": [-0.0, 5e-324, 1e16, 1e-7, 1e22, np.nan,
                             np.inf, -np.inf, 0.1, 1e300]},
    "matrix_in_nested_dicts": {"z": {"y": {"m": (np.arange(12.0).reshape(3, 4) / 7).tolist(),
                                           "i": [[0, 1, 2], [3, 4, 5]]}},
                               "a": 1},
    "float32_and_bool_arrays": {"f": np.linspace(0, 1, 5, dtype=np.float32).tolist(),
                                "b": [[True, False], [False, True]]},
    "three_d_array": np.arange(24.0).reshape(2, 3, 4).tolist(),
    "list_of_arrays": [[0, 1, 2], [0.0, 1.0], [[0.0, 0.0], [0.0, 0.0]]],
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
        # the way save_model adds its checksum member
        payload = {"value": value, "b": encode_array(np.arange(6.0).reshape(2, 3)),
                   "ü": "z"}
        path = tmp_path / "out.json"
        write_json(str(path), {**payload, "checksum": json_checksum(payload)})
        assert path.read_text() == oracle_text(
            {**payload, "checksum": oracle_checksum(payload)})

    @pytest.mark.parametrize("architecture", TABLE_ARCHITECTURES)
    def test_save_model_writes_the_json_dumps_layout(self, architecture, tmp_path):
        rng = np.random.default_rng(3)
        names = ("cpu_ü", "io")
        network = build_network(parse_architecture(architecture), 4, len(names), rng)
        norm = GlobalNorm(names, rng.normal(size=2), rng.random(2) + 0.5)
        detector = Detector(network, norm, 4, {"seed": 0, "val_mse": 0.25})
        path = tmp_path / "model.json"
        save_model(detector, str(path))
        payload = {
            "format": "dbdiag-model",
            "format_version": 2,
            "architecture": architecture,
            "window_steps": 4,
            "feature_names": list(names),
            "normalization": {"mean": array_entry(norm.mean),
                              "std": array_entry(norm.std)},
            "state": {name: array_entry(value)
                      for name, value in network.get_state().items()},
            "training": {"seed": 0, "val_mse": 0.25},
        }
        payload["checksum"] = oracle_checksum(payload)
        assert path.read_text() == oracle_text(payload)
        loaded = load_model(str(path))
        for name, value in network.get_state().items():
            assert loaded.network.get_state()[name].dtype == value.dtype
            assert np.array_equal(loaded.network.get_state()[name], value)
        assert np.array_equal(loaded.norm.mean, norm.mean)
        assert np.array_equal(loaded.norm.std, norm.std)


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
