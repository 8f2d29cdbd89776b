"""Metric loading, normalization, windowing, splits, and CSV and JSON file I/O.

Metrics arrive as CSV with a ``timestamp`` column plus one column per metric.
Timestamps are parsed to epoch minutes and must land exactly on minute
boundaries; rows are sorted, duplicates rejected. Gaps are allowed in the
file and are respected later: windows never span a gap. Windows are read-only
views of the frame's values; a frame with gaps makes one gathered copy.

Every JSON file is written by ``write_json`` in the stdlib's indented layout
(``json_text``); a model's checksum is taken over the compact text
(``json_checksum``).
"""

from __future__ import annotations

import base64
import csv
import hashlib
import json
import re
import warnings
from dataclasses import dataclass, replace
from datetime import datetime, timezone

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError, DiagError

DEFAULT_WINDOW_STEPS = 30
# the epoch minutes minute_to_iso can write: years 1 to 9999, UTC
FIRST_MINUTE = int(datetime(1, 1, 1, tzinfo=timezone.utc).timestamp() // 60)
LAST_MINUTE = int(datetime(9999, 12, 31, 23, 59, tzinfo=timezone.utc).timestamp() // 60)
_TIMEZONE_WARNING = "no explicit representation of timezones"
_NO_DATA_WARNING = "loadtxt: input contained no data"
# What XML 1.0 cannot hold, even as a character reference: the C0 controls
# other than tab, LF and CR, and U+FFFE and U+FFFF. Metric names become chart
# text, so no name may hold one.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")
# the rows write_minute_csv formats and writes at a time
_CSV_BLOCK_ROWS = 1024


@dataclass
class MetricFrame:
    """A minute-resolution multivariate series.

    kind is "stat" for resource/state metrics and "event" for wait-event
    counters. It is a tag for the caller: the pipeline does not read it.
    """

    metric_names: tuple[str, ...]
    timestamps: np.ndarray      # int64 epoch minutes, strictly increasing
    values: np.ndarray          # [time, metric] float64; float32 once normalized
    kind: str = "stat"

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape != (len(self.timestamps),
                                                          len(self.metric_names)):
            raise DataError(
                f"values shape {self.values.shape} does not match "
                f"{len(self.timestamps)} timestamps x {len(self.metric_names)} metrics")
        if len(self.timestamps) == 0:
            raise DataError("metric frame is empty")
        if np.any(np.diff(self.timestamps) <= 0):
            raise DataError("timestamps must be strictly increasing")

    @property
    def n_metrics(self) -> int:
        return len(self.metric_names)

    def column(self, name: str) -> np.ndarray:
        try:
            idx = self.metric_names.index(name)
        except ValueError:
            raise DataError(f"no metric named {name!r}; "
                            f"have {', '.join(self.metric_names)}") from None
        return self.values[:, idx]

    def slice_minutes(self, start: int, end: int) -> "MetricFrame":
        """Rows with start <= timestamp < end (epoch minutes)."""
        mask = (self.timestamps >= start) & (self.timestamps < end)
        if not np.any(mask):
            raise DataError(f"no samples in minute range [{start}, {end})")
        return MetricFrame(self.metric_names, self.timestamps[mask],
                           self.values[mask], self.kind)


def stamps_to_minutes(texts, rows=None) -> np.ndarray:
    """Epoch minutes (int64) of a sequence of timestamp strings.

    A stamp in the form dbdiag writes, exactly ``YYYY-MM-DDTHH:MM:00Z`` with
    fields that name a real minute (a day its month has under the Gregorian
    leap rule, hour to 23, minute to 59), is read by integer arithmetic on its
    code points and one month-to-day conversion per stamp
    (``_canonical_minutes``); parsing every stamp's text through
    ``datetime64`` would cost most of a CSV read. Any other stamp that starts
    with a four-digit year and ``-`` is an ISO-8601 instant, read by
    ``_iso_micros``, and any other stamp is epoch seconds. Every stamp must
    land on a minute in the years 1 to 9999. An error names the first bad
    stamp in array order and, given ``rows`` (one number per stamp), its row.
    """
    texts = np.char.strip(np.asarray(texts, dtype=str))
    texts = texts.astype(np.promote_types(texts.dtype, "U20"))  # room for the canonical form
    codes = texts.view(np.uint32).reshape(len(texts), texts.dtype.itemsize // 4)
    dated = ((codes[:, :4] >= ord("0")) & (codes[:, :4] <= ord("9"))).all(axis=1)
    dated &= codes[:, 4] == ord("-")
    canonical, canonical_minutes = _canonical_minutes(texts, codes)
    iso = dated & ~canonical
    minutes, rem = np.empty(len(texts)), np.empty(len(texts))
    minutes[canonical], rem[canonical] = canonical_minutes, 0.0
    try:
        with np.errstate(invalid="ignore"):  # inf and nan give a nan remainder
            minutes[~dated], rem[~dated] = np.divmod(texts[~dated].astype(np.float64), 60.0)
        minutes[iso], rem[iso] = np.divmod(_iso_micros(texts[iso]), 60_000_000)
    except ValueError:
        # bisect for the first stamp that does not read: the stamps before
        # index ``good`` read, those before ``fails`` do not
        good, fails = 0, len(texts)
        while fails - good > 1:
            mid = (good + fails) // 2
            good, fails = ((mid, fails) if _reads(texts[:mid], dated[:mid], iso[:mid])
                           else (good, mid))
        first = good
        stamps_to_minutes(texts[:first], rows)  # an earlier stamp may be bad in another way
        raise _timestamp_error("unparseable timestamp {}", texts[first],
                               None if rows is None else rows[first]) from None
    misaligned = rem != 0.0
    inside = (minutes >= FIRST_MINUTE) & (minutes <= LAST_MINUTE)
    bad = np.flatnonzero(misaligned | ~inside)
    if bad.size:
        i = bad[0]
        raise _timestamp_error("timestamp {} is not minute-aligned" if misaligned[i] else
                               "timestamp {} is outside the years 1 to 9999", texts[i],
                               None if rows is None else rows[i])
    return minutes.astype(np.int64)


# the canonical form as, per code point, the lowest code allowed and how far
# above it a code may go: 9 for a digit place, 0 for a fixed character
_CANONICAL = "dddd-dd-ddTdd:dd:00Z"
_CANONICAL_LOW = np.array([ord("0" if c == "d" else c) for c in _CANONICAL], dtype=np.uint32)
_CANONICAL_SPAN = np.array([9 if c == "d" else 0 for c in _CANONICAL], dtype=np.uint32)


def _canonical_minutes(texts: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which stamps are exactly ``YYYY-MM-DDTHH:MM:00Z`` naming a real minute,
    and the epoch minutes of those, from the fields' digits.

    ``codes`` is the uint32 code-point view of ``texts``, at least 20 code
    points wide. Every test reads one of its columns at a time, which is
    faster than a test over [n, 20] rows. Days since the epoch come from
    NumPy's calendar: the first days of the stamp's month and of the next,
    read through ``datetime64[M]``; a day that does not fall before the next
    month's first is not one its month has.
    """
    canonical = np.char.str_len(texts) == len(_CANONICAL)
    for k, (low, span) in enumerate(zip(_CANONICAL_LOW, _CANONICAL_SPAN)):
        # unsigned, so a code below the lowest wraps round to a huge offset
        canonical &= codes[:, k] - low <= span

    def field(first: int, width: int) -> np.ndarray:
        value = codes[:, first]
        for k in range(first + 1, first + width):
            value = value * 10 + codes[:, k]
        return value - np.uint32(ord("0") * int("1" * width))

    year, month, day = field(0, 4), field(5, 2), field(8, 2)
    hour, minute = field(11, 2), field(14, 2)
    canonical &= (month >= 1) & (month <= 12) & (hour <= 23) & (minute <= 59)
    year, month, day, hour, minute = (value[canonical].astype(np.int64)
                                      for value in (year, month, day, hour, minute))
    months = (year - 1970) * 12 + month - 1
    first, after = (m.astype("datetime64[M]").astype("datetime64[D]").astype(np.int64)
                    for m in (months, months + 1))
    days = first + day - 1
    real = (first <= days) & (days < after)
    canonical[canonical] = real
    return canonical, (days * 1440 + hour * 60 + minute)[real]


def _iso_micros(stamps: np.ndarray) -> np.ndarray:
    """Epoch microseconds of ISO-8601 stamps that start ``YYYY-``, by one
    ``datetime64[us]`` conversion: ``Z``, ``+HH:MM`` and naive (UTC) stamps.

    The fixed year width keeps NumPy from wrapping a huge year round into
    range. NumPy warns once per stamp that carries a zone, which costs more
    than the parse; so a final Z after a digit, in a stamp with no other
    offset (a ``+``, or a ``-`` past the date), is dropped from a copy,
    leaving the naive stamp of the same instant.
    """
    stamps = stamps.copy()
    codes = stamps.view(np.uint32).reshape(len(stamps), stamps.dtype.itemsize // 4)
    each, last = np.arange(len(stamps)), np.char.str_len(stamps) - 1
    before = codes[each, last - 1]
    offset = (codes == ord("+")).any(axis=1) | (codes[:, 10:] == ord("-")).any(axis=1)
    zulu = ((codes[each, last] == ord("Z")) & (before >= ord("0")) & (before <= ord("9"))
            & ~offset)
    codes[each[zulu], last[zulu]] = 0
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", _TIMEZONE_WARNING, UserWarning)
        return stamps.astype("datetime64[us]").astype(np.int64)


def _reads(texts: np.ndarray, dated: np.ndarray, iso: np.ndarray) -> bool:
    """Whether every stamp gets through the conversion its form selects; a
    canonical stamp (dated but not ``iso``) always does."""
    try:
        texts[~dated].astype(np.float64)
        _iso_micros(texts[iso])
        return True
    except ValueError:
        return False


def _timestamp_error(message: str, text: str, row: int | None) -> DataError:
    # built only on failure, so a CSV row does not pay for its error text
    where = "" if row is None else f" in row {row}"
    return DataError(message.format(f"{str(text)!r}{where}"))


def name_list(value, key: str, error: type[DiagError]) -> tuple[str, ...]:
    """A JSON list of strings as a tuple; anything else, a string included,
    raises ``error`` naming ``key``."""
    if not isinstance(value, list) or not all(isinstance(name, str) for name in value):
        raise error(f"{key} must be a JSON list of strings")
    return tuple(value)


def not_xml_name(names) -> str | None:
    """The first of ``names`` that holds a character XML 1.0 cannot hold, or
    None."""
    return next((name for name in names if _NOT_XML.search(name)), None)


def load_metrics(path: str, kind: str = "stat") -> MetricFrame:
    """Read a metric CSV. Header: ``timestamp,<name>,...``; body rows carry
    a timestamp (see ``stamps_to_minutes``) plus one numeric value per metric.

    The header goes through ``csv.reader`` and the body through one
    ``np.loadtxt`` call. Only a bad file is read again, to name the row of
    the first problem found, in this order: a row with the wrong number of
    fields or a cell that is not a number, then a bad timestamp, then a
    value that is not finite.
    """
    if kind not in ("stat", "event"):
        raise ConfigError(f"kind must be 'stat' or 'event', got {kind!r}")
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from None
    with fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise DataError(f"{path} is empty") from None
        if not header:
            raise DataError(f"{path}: empty header")
        if header[0].strip() != "timestamp":
            raise DataError(f"{path}: first column must be 'timestamp', got {header[0]!r}")
        names = tuple(h.strip() for h in header[1:])
        if not names:
            raise DataError(f"{path}: no metric columns")
        if "" in names:
            raise DataError(f"{path}: column {names.index('') + 2} has an empty "
                            f"metric name")
        if len(set(names)) != len(names):
            raise DataError(f"{path}: duplicate metric names in header")
        bad = not_xml_name(names)
        if bad is not None:
            raise DataError(f"{path}: metric column {bad!r} holds a character "
                            f"that XML, and so a chart, cannot hold")
        body = np.dtype([("stamp", object), ("values", np.float64, (len(names),))])
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", _NO_DATA_WARNING, UserWarning)
                rows = np.loadtxt(fh, dtype=body, delimiter=",", comments=None,
                                  quotechar='"', ndmin=1)
        except ValueError as exc:
            raise _cell_error(path, names, exc) from None
    if not rows.size:
        raise DataError(f"{path}: no data rows")
    try:
        stamps = stamps_to_minutes(rows["stamp"])
    except DataError:
        # the same error again, worded with its row
        stamps_to_minutes(rows["stamp"], [row_no for row_no, _ in _data_rows(path)])
        raise
    vals = rows["values"]
    bad = np.argwhere(~np.isfinite(vals))
    if bad.size:
        i, j = bad[0]
        row_no = [row_no for row_no, _ in _data_rows(path)][i]
        raise DataError(f"{path}: non-finite value {float(vals[i, j])} in row {row_no}, "
                        f"column {names[j]!r}")
    order = np.argsort(stamps, kind="stable")
    ts = stamps[order]
    vals = vals[order]
    dup = np.nonzero(np.diff(ts) == 0)[0]
    if dup.size:
        raise DataError(f"{path}: duplicate timestamp at epoch minute {int(ts[dup[0]])}")
    return MetricFrame(names, ts, vals, kind)


def _data_rows(path: str):
    """(row number, fields) of each non-blank body row of a CSV; a row's
    number is its line in the file, the header being line 1."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        yield from ((row_no, row) for row_no, row in enumerate(reader, start=2) if row)


def _cell_error(path: str, names: tuple[str, ...], cause: ValueError) -> DataError:
    """The first row with the wrong number of fields or a cell that is not a
    number, for a CSV whose bulk parse failed with ``cause``.

    Each row's cells go through the bulk parse's own number reader, so this
    finds where the failure is; it returns no data. If no row is bad on its
    own, the bulk parse's message stands.
    """
    for row_no, row in _data_rows(path):
        if len(row) != len(names) + 1:
            return DataError(f"{path}: row {row_no} has {len(row)} fields, "
                             f"expected {len(names) + 1}")
        if not _reads_numbers(row[1:]):
            bad = next(v for v in row[1:] if not _reads_numbers([v]))
            return DataError(f"{path}: non-numeric value {bad!r} in row {row_no}")
    return DataError(f"{path}: {cause}")


def _reads_numbers(cells: list[str]) -> bool:
    """Whether the bulk parse's number reader, ``np.loadtxt``'s, reads every cell."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", _NO_DATA_WARNING, UserWarning)
            values = np.loadtxt([",".join(cells)], delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return False
    return values.shape == (len(cells),)


def minute_to_iso(minute: int) -> str:
    """Epoch minute -> UTC ISO-8601 instant ('2023-01-01T00:05:00Z')."""
    return minutes_to_iso([minute])[0]


def minutes_to_iso(minutes: np.ndarray) -> list[str]:
    """``minute_to_iso`` of every entry, by one NumPy conversion."""
    minutes = np.asarray(minutes, dtype=np.int64)
    if minutes.size and not FIRST_MINUTE <= minutes.min() <= minutes.max() <= LAST_MINUTE:
        raise DataError("epoch minutes outside the years 1 to 9999 cannot be written")
    stamps = np.datetime_as_string(minutes.astype("datetime64[m]"), unit="s")
    return [f"{stamp}Z" for stamp in stamps.tolist()]


def iso_to_minute(text: str) -> int:
    """Inverse of minute_to_iso; also accepts epoch seconds."""
    return int(stamps_to_minutes([text])[0])


def write_metrics(path: str, frame: MetricFrame) -> None:
    """Inverse of load_metrics; timestamps serialize as UTC ISO-8601."""
    write_minute_csv(path, "timestamp", frame.timestamps, frame.metric_names,
                     frame.values)


def write_csv_rows(path: str, header: list[str], rows) -> None:
    """Write a header row and then ``rows`` in the csv module's default dialect."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_minute_csv(path: str, key: str, minutes: np.ndarray,
                     names: tuple[str, ...], values: np.ndarray) -> None:
    """One ISO-8601 column named ``key``, then one ``repr`` float per name.

    The header goes through ``csv.writer``. No stamp or float ``repr``
    needs quoting, so the body rows are joined directly with the writer's
    CRLF line ends: the bytes are those ``csv.writer`` would write. The body
    is formatted and written ``_CSV_BLOCK_ROWS`` rows at a time, so no more
    than one block's text and Python floats are held at once.
    """
    values = np.asarray(values, dtype=np.float64)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow([key, *names])
        for start in range(0, len(values), _CSV_BLOCK_ROWS):
            block = slice(start, start + _CSV_BLOCK_ROWS)
            fh.write("".join(",".join((stamp, *map(repr, row))) + "\r\n"
                             for stamp, row in zip(minutes_to_iso(minutes[block]),
                                                   values[block].tolist())))


def json_text(payload) -> str:
    """The layout of every JSON file: ``json.dumps`` with a two-space indent
    and sorted keys, then a newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def json_checksum(payload) -> str:
    """sha256 of the compact, sorted-key JSON text of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def write_json(path: str, payload) -> None:
    """Write ``json_text(payload)`` to ``path``."""
    with open(path, "w") as fh:
        fh.write(json_text(payload))


def encode_array(value: np.ndarray) -> dict:
    """An array as ``{data, dtype, shape}``, ``data`` being the base64 of its
    little-endian bytes in C order, so every value round-trips exactly."""
    value = np.asarray(value)
    little = value.astype(value.dtype.newbyteorder("<"), copy=False)
    return {"data": base64.b64encode(little.tobytes()).decode("ascii"),
            "dtype": little.dtype.str, "shape": list(value.shape)}


def decode_array(entry: dict) -> np.ndarray:
    """Inverse of ``encode_array``: a read-only view of the decoded bytes.

    A malformed entry raises ``KeyError``, ``TypeError`` or ``ValueError``;
    only boolean and numeric dtypes are read.
    """
    dtype = np.dtype(entry["dtype"])
    if dtype.kind not in "biuf":
        raise ValueError(f"unsupported array dtype {entry['dtype']!r}")
    raw = base64.b64decode(entry["data"], validate=True)
    return np.frombuffer(raw, dtype=dtype).reshape(entry["shape"])


def read_json(path: str, error: type[DiagError]):
    """Parse a JSON file; an unreadable or invalid one raises ``error``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"cannot open {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(f"{path} is not valid JSON: {exc}") from None


@dataclass
class GlobalNorm:
    """Per-feature z-normalization fit on the full training range.

    Uses the population standard deviation. A zero-variance feature cannot
    be normalized and is reported by name rather than silently passed
    through.
    """

    feature_names: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, frame: MetricFrame) -> "GlobalNorm":
        mean = frame.values.mean(axis=0)
        std = frame.values.std(axis=0)
        dead = [n for n, s in zip(frame.metric_names, std) if s == 0.0]
        if dead:
            raise ConfigError(f"constant feature(s) cannot be normalized: "
                              f"{', '.join(dead)}")
        return cls(frame.metric_names, mean, std)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """The z-scores of ``values``, computed in float64 and returned as
        float32: the dtype every network pass computes in."""
        return ((values - self.mean) / self.std).astype(np.float32)


@dataclass
class WindowSet:
    """Sliding windows cut from a frame, with their start minutes. The
    windows' shape gives their length, ``window_steps``."""

    windows: np.ndarray            # [n, window_steps, features]; view if no gap
    start_timestamps: np.ndarray   # int64 epoch minutes
    feature_names: tuple[str, ...]

    def __len__(self) -> int:
        return self.windows.shape[0]

    @property
    def window_steps(self) -> int:
        return self.windows.shape[1]


def make_windows(frame: MetricFrame, window_steps: int = DEFAULT_WINDOW_STEPS,
                 stride: int = 1) -> WindowSet:
    """Cut length-``window_steps`` windows at the given stride.

    The frame is first segmented at timestamp gaps (any jump of more than one
    minute) so no window mixes samples from both sides of an outage. Segments
    shorter than one window contribute nothing; if every segment is too
    short, that is an error. Without a gap the windows are a read-only view
    of ``frame.values``; with gaps they are gathered into one copy.
    """
    if window_steps < 2:
        raise ConfigError(f"window_steps must be at least 2, got {window_steps}")
    if stride < 1:
        raise ConfigError(f"stride must be at least 1, got {stride}")
    breaks = np.nonzero(np.diff(frame.timestamps) != 1)[0] + 1
    bounds = np.concatenate(([0], breaks, [len(frame.timestamps)]))
    starts = np.concatenate([np.arange(a, b - window_steps + 1, stride, dtype=np.int64)
                             for a, b in zip(bounds[:-1], bounds[1:])])
    if starts.size == 0:
        raise DataError(
            f"no segment is long enough for a {window_steps}-minute window "
            f"(longest run: {int(np.diff(bounds).max())} minutes)")
    view = sliding_window_view(frame.values, window_steps, axis=0).swapaxes(1, 2)
    windows = view[::stride] if breaks.size == 0 else view[starts]
    return WindowSet(windows, frame.timestamps[starts], frame.metric_names)


@dataclass
class SplitWindows:
    train: WindowSet
    val: WindowSet
    test: WindowSet


def check_split(fractions: tuple[float, float, float]) -> None:
    """Refuse a split that is not three finite positive fractions summing to 1."""
    if len(fractions) != 3 or not all(0.0 < f < np.inf for f in fractions):
        raise ConfigError(f"split needs three finite positive fractions, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"fractions must sum to 1, got {fractions}")


def split_windows(windows: WindowSet,
                  fractions: tuple[float, float, float] = (0.6, 0.2, 0.2)
                  ) -> SplitWindows:
    """Chronological train/validation/test split of a window set.

    Boundary counts are floors of the fractions; leftover windows go to the
    training slice. Windows are assumed already in time order (make_windows
    guarantees it). Every slice must end up non-empty.
    """
    check_split(fractions)
    n = len(windows)
    n_val = int(n * fractions[1])
    n_test = int(n * fractions[2])
    n_train = n - n_val - n_test
    if min(n_train, n_val, n_test) < 1:
        raise ConfigError(
            f"{n} windows cannot be split {fractions}; every slice needs at least one")

    def cut(a: int, b: int) -> WindowSet:
        return replace(windows, windows=windows.windows[a:b],
                       start_timestamps=windows.start_timestamps[a:b])

    return SplitWindows(cut(0, n_train), cut(n_train, n_train + n_val),
                        cut(n_train + n_val, n))
