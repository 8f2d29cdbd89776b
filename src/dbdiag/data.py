"""Metric loading, normalization, windowing, splits, and CSV and JSON file I/O.

Metrics arrive as CSV with a ``timestamp`` column plus one column per metric.
Timestamps are parsed to epoch minutes and must land exactly on minute
boundaries; rows are sorted, duplicates rejected. Gaps are allowed in the
file and are respected later: windows never span a gap. Windows are read-only
views of the frame's values; a frame with gaps makes one gathered copy.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError, DiagError

DEFAULT_WINDOW_STEPS = 30
# the epoch minutes minute_to_iso can write: years 1 to 9999, UTC
_FIRST_MINUTE = datetime(1, 1, 1, tzinfo=timezone.utc).timestamp() // 60
_LAST_MINUTE = datetime(9999, 12, 31, 23, 59, tzinfo=timezone.utc).timestamp() // 60


@dataclass
class MetricFrame:
    """A minute-resolution multivariate series.

    kind is "stat" for resource/state metrics and "event" for wait-event
    counters. It is a tag for the caller: the pipeline does not read it.
    """

    metric_names: tuple[str, ...]
    timestamps: np.ndarray      # int64 epoch minutes, strictly increasing
    values: np.ndarray          # [time, metric] float64
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


def _parse_timestamp(text: str, row: int | None = None) -> int:
    """Epoch minutes of an ISO-8601 instant or epoch seconds; errors name
    ``row`` when the text comes from a CSV row."""
    text = text.strip()
    try:
        seconds = float(text)
    except ValueError:
        iso = text[:-1] + "+00:00" if text.endswith("Z") else text
        try:
            dt = datetime.fromisoformat(iso)
        except ValueError:
            raise _timestamp_error("unparseable timestamp {}", text, row) from None
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        seconds = dt.timestamp()
    minutes, rem = divmod(seconds, 60.0)
    if rem != 0.0:
        raise _timestamp_error("timestamp {} is not minute-aligned", text, row)
    if not _FIRST_MINUTE <= minutes <= _LAST_MINUTE:
        raise _timestamp_error("timestamp {} is outside the years 1 to 9999", text, row)
    return int(minutes)


def _timestamp_error(message: str, text: str, row: int | None) -> DataError:
    # built only on failure, so a CSV row does not pay for its error text
    where = "" if row is None else f" in row {row}"
    return DataError(message.format(f"{text!r}{where}"))


def load_metrics(path: str, kind: str = "stat") -> MetricFrame:
    """Read a metric CSV. Header: ``timestamp,<name>,...``; body rows carry
    an ISO-8601 instant or epoch seconds plus one numeric value per metric.
    """
    if kind not in ("stat", "event"):
        raise ConfigError(f"kind must be 'stat' or 'event', got {kind!r}")
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path} is empty") from None
        if not header:
            raise DataError(f"{path}: empty header")
        if header[0].strip() != "timestamp":
            raise DataError(f"{path}: first column must be 'timestamp', got {header[0]!r}")
        names = tuple(h.strip() for h in header[1:])
        if not names:
            raise DataError(f"{path}: no metric columns")
        if len(set(names)) != len(names):
            raise DataError(f"{path}: duplicate metric names in header")

        stamps, rows, row_nos = [], [], []
        # row numbers are file line numbers (header is line 1)
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(names) + 1:
                raise DataError(f"{path}: row {row_no} has {len(row)} fields, "
                                f"expected {len(names) + 1}")
            stamps.append(_parse_timestamp(row[0], row_no))
            row_nos.append(row_no)
            try:
                rows.append([float(v) for v in row[1:]])
            except ValueError:
                bad = next(v for v in row[1:] if not _is_float(v))
                raise DataError(f"{path}: non-numeric value {bad!r} in row {row_no}"
                                ) from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    vals = np.asarray(rows, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(vals))
    if bad.size:
        i, j = bad[0]
        raise DataError(f"{path}: non-finite value {float(vals[i, j])} in row "
                        f"{row_nos[i]}, column {names[j]!r}")
    order = np.argsort(np.asarray(stamps, dtype=np.int64), kind="stable")
    ts = np.asarray(stamps, dtype=np.int64)[order]
    vals = vals[order]
    dup = np.nonzero(np.diff(ts) == 0)[0]
    if dup.size:
        raise DataError(f"{path}: duplicate timestamp at epoch minute {int(ts[dup[0]])}")
    return MetricFrame(names, ts, vals, kind)


def _is_float(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def minute_to_iso(minute: int) -> str:
    """Epoch minute -> UTC ISO-8601 instant ('2023-01-01T00:05:00Z')."""
    instant = datetime.fromtimestamp(int(minute) * 60, tz=timezone.utc)
    return instant.isoformat().replace("+00:00", "Z")


def iso_to_minute(text: str) -> int:
    """Inverse of minute_to_iso; also accepts epoch seconds."""
    return _parse_timestamp(text)


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
    """One ISO-8601 column named ``key``, then one ``repr`` float per name."""
    rows = zip(np.asarray(minutes).tolist(), np.asarray(values, dtype=np.float64))
    write_csv_rows(path, [key, *names],
                   ([minute_to_iso(m), *map(repr, row.tolist())] for m, row in rows))


# the types json.dumps spells as one token with no "[", "]" or ","
_SCALAR_TYPES = frozenset((float, int, bool, type(None)))


def _encode(obj, indent: str) -> tuple[str, str]:
    """``obj`` as (two-space-indented text, compact text), keys sorted in both.

    ``indent`` is the indentation of the line the text starts on. An ndarray
    is encoded as its ``tolist()``. A list of scalars, such as each row of a
    matrix, is formatted by one ``json.dumps`` call and indented with
    ``str.replace``, which is safe because no scalar's text holds ``[``,
    ``]`` or ``,``. Strings go through json's ``encode_basestring_ascii`` and
    other leaves through ``json.dumps``, so escaping and the spelling of
    ``NaN`` are json's.
    """
    if isinstance(obj, str):
        text = encode_basestring_ascii(obj)
        return text, text
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    inner = indent + "  "
    if isinstance(obj, dict):
        return _join_members({key: _encode(value, inner) for key, value in obj.items()},
                             indent)
    if not isinstance(obj, (list, tuple)):
        text = json.dumps(obj)
        return text, text
    if not obj:
        return "[]", "[]"
    if set(map(type, obj)) <= _SCALAR_TYPES:
        compact = json.dumps(obj, separators=(",", ":"))
        body = compact[1:-1].replace(",", ",\n" + inner)
        return f"[\n{inner}{body}\n{indent}]", compact
    parts = [_encode(item, inner) for item in obj]
    pretty = ",\n".join(inner + text for text, _ in parts)
    return (f"[\n{pretty}\n{indent}]",
            "[" + ",".join(compact for _, compact in parts) + "]")


def _join_members(members: dict, indent: str) -> tuple[str, str]:
    """The object whose members ``_encode`` gave as ``members``, in both layouts."""
    if not members:
        return "{}", "{}"
    # pieces joined once, so no member's text is copied twice
    pretty, compact = ["{\n"], ["{"]
    for key in sorted(members):
        if not isinstance(key, str):
            raise TypeError(f"JSON object keys must be strings, got {key!r}")
        name = encode_basestring_ascii(key)
        text, short = members[key]
        pretty += (indent, "  ", name, ": ", text, ",\n")
        compact += (name, ":", short, ",")
    pretty[-1] = f"\n{indent}}}"
    compact[-1] = "}"
    return "".join(pretty), "".join(compact)


def _as_list(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def json_text(payload) -> str:
    """The layout of every JSON file: two-space indent, sorted keys, newline.

    ndarrays are written as lists and object keys must be strings. The text
    equals ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"`` with
    every array replaced by its ``tolist()``.
    """
    return _encode(payload, "")[0] + "\n"


def json_checksum(payload) -> str:
    """sha256 of the compact, sorted-key JSON text of ``payload``."""
    return _sha256(json.dumps(payload, sort_keys=True, separators=(",", ":"),
                              default=_as_list))


def write_json(path: str, payload, checksum_key: str | None = None) -> None:
    """Write ``payload`` as ``json_text`` would.

    With ``checksum_key``, the written object also holds that member: the
    ``json_checksum`` of ``payload``, taken from the compact text of the
    same encoding as the file text, so each value is formatted once.
    """
    if checksum_key is None:
        text = _encode(payload, "")[0]
    else:
        members = {key: _encode(value, "  ") for key, value in payload.items()}
        digest = encode_basestring_ascii(_sha256(_join_members(members, "")[1]))
        members[checksum_key] = (digest, digest)
        text = _join_members(members, "")[0]
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")


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
        return (values - self.mean) / self.std


@dataclass
class WindowSet:
    """Sliding windows cut from a frame, with their start positions."""

    windows: np.ndarray            # [n, window_steps, features]; view if no gap
    start_indices: np.ndarray      # int64, row index into the source frame
    start_timestamps: np.ndarray   # int64 epoch minutes
    window_steps: int
    feature_names: tuple[str, ...]

    def __len__(self) -> int:
        return self.windows.shape[0]


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
    return WindowSet(windows, starts, frame.timestamps[starts],
                     window_steps, frame.metric_names)


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
        return WindowSet(windows.windows[a:b], windows.start_indices[a:b],
                         windows.start_timestamps[a:b], windows.window_steps,
                         windows.feature_names)

    return SplitWindows(cut(0, n_train), cut(n_train, n_train + n_val),
                        cut(n_train + n_val, n))
