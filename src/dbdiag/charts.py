"""Hand-rolled SVG rendering for report charts.

Charts are emitted as plain SVG strings built from the data alone, with all
coordinates rounded to two decimals, so the same inputs always produce the
same bytes. That keeps full reports byte-reproducible, which matters because
report integrity is checked by digest. Titles and legends are XML-escaped,
so any metric name gives well-formed SVG.

Polyline points are written by one NumPy pass (``_points``) that gives the
same text as ``"{:.2f}".format`` for every value. For 0 <= v < 1000 the
product ``t = v * 100.0`` is within 2**-36 of the exact 100·v, so whenever
t is more than 1e-6 away from a half-integer, ``rint(t)`` is the correctly
rounded hundredth that ``format(v, ".2f")`` prints. Every other value (sign
bit set, -0.0 included; NaN or inf; ``rint(t) >= 100000``; near-ties) is
formatted by ``"{:.2f}".format`` itself.
"""

from __future__ import annotations

import numpy as np

from .data import minute_to_iso
from .similarity import znorm
from .spc import ControlChart

WIDTH = 860
HEIGHT = 280
MARGIN_LEFT = 64
MARGIN_RIGHT = 16
MARGIN_TOP = 28
MARGIN_BOTTOM = 34

_PALETTE = ("#d97706", "#059669", "#7c3aed", "#db2777", "#0891b2", "#65a30d")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _escape(text: str) -> str:
    """``text`` as XML character data, as ``xml.sax.saxutils.escape`` writes
    it; importing that module would load urllib, http and ssl for one line."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _scale(values_min: float, values_max: float, lo: float, hi: float):
    span = values_max - values_min
    if span == 0.0:
        span = 1.0
        values_min -= 0.5

    def to_px(v):  # a float or an array of them
        return lo + (v - values_min) / span * (hi - lo)

    return to_px


def _points(xs: np.ndarray, ys: np.ndarray) -> str:
    """``"x,y x,y ..."`` with every value as ``"{:.2f}".format`` writes it."""
    v = np.empty(2 * len(xs))
    v[0::2], v[1::2] = xs, ys
    with np.errstate(all="ignore"):   # inf and NaN take the slow path below
        t = v * 100.0
        c = np.rint(t)
        slow = (np.signbit(v) | ~(c < 100000.0)
                | (np.abs(t - np.floor(t) - 0.5) <= 1e-6))
    c[slow] = 0.0
    hundredths = c.astype(np.int64)
    buf = np.empty((v.size, 7), np.uint8)     # ddd.dd and a separator
    for col, unit in ((0, 10000), (1, 1000), (2, 100), (4, 10), (5, 1)):
        buf[:, col] = hundredths // unit % 10 + ord("0")
    buf[:, 3] = ord(".")
    buf[0::2, 6], buf[1::2, 6] = ord(","), ord(" ")
    keep = np.ones(buf.shape, dtype=bool)
    keep[:, 0] = hundredths >= 10000          # no leading zeros
    keep[:, 1] = hundredths >= 1000
    keep[slow, :6] = False                    # a slow value keeps its separator
    text = buf[keep].tobytes().decode("ascii")
    if slow.any():
        lengths = keep.sum(axis=1)
        starts = (np.cumsum(lengths) - lengths).tolist()
        pieces, done = [], 0
        for i in np.flatnonzero(slow).tolist():
            pieces += [text[done:starts[i]], "{:.2f}".format(float(v[i]))]
            done = starts[i]
        text = "".join(pieces) + text[done:]
    return text[:-1]


def _polyline(xs: np.ndarray, ys: np.ndarray, color: str, width: float = 1.5) -> str:
    return (f'<polyline fill="none" stroke="{color}" stroke-width="{width}"'
            f' points="{_points(xs, ys)}"/>')


def _hline(y: float, color: str, label: str, dash: str | None = None) -> str:
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<line x1="{MARGIN_LEFT}" y1="{_fmt(y)}" x2="{WIDTH - MARGIN_RIGHT}" '
            f'y2="{_fmt(y)}" stroke="{color}" stroke-width="1"{dash_attr}/>'
            f'<text x="{WIDTH - MARGIN_RIGHT - 2}" y="{_fmt(y - 3)}" '
            f'font-size="10" text-anchor="end" fill="{color}">{label}</text>')


def _frame(title: str) -> tuple[str, str]:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">'
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>'
            f'<text x="{MARGIN_LEFT}" y="18" font-size="13" font-family="sans-serif" '
            f'fill="#111827">{_escape(title)}</text>')
    return head, "</svg>"


def _footer(first_minute: int, last_minute: int) -> str:
    """The first and last timestamps under the x axis."""
    return (f'<text x="{MARGIN_LEFT}" y="{HEIGHT - 12}" font-size="10" '
            f'fill="#6b7280">{minute_to_iso(int(first_minute))}</text>'
            f'<text x="{WIDTH - MARGIN_RIGHT}" y="{HEIGHT - 12}" '
            f'font-size="10" text-anchor="end" fill="#6b7280">'
            f'{minute_to_iso(int(last_minute))}</text>')


def control_chart_svg(scores: np.ndarray, window_starts: np.ndarray,
                      chart: ControlChart, flagged: np.ndarray) -> str:
    """One feature's score series with its control limits and flagged windows."""
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    lo = min(float(scores.min()), chart.lcl)
    hi = max(float(scores.max()), chart.ucl)
    to_y = _scale(lo, hi, HEIGHT - MARGIN_BOTTOM, MARGIN_TOP)
    to_x = _scale(0.0, float(max(n - 1, 1)), MARGIN_LEFT, WIDTH - MARGIN_RIGHT)

    xs = to_x(np.arange(n))
    ys = to_y(scores)
    head, tail = _frame(
        f"{chart.feature} reconstruction score, {chart.k:g}-sigma limits")
    parts = [head]
    parts.append(_hline(to_y(chart.ucl), "#dc2626", f"UCL {chart.ucl:.4g}"))
    parts.append(_hline(to_y(chart.center), "#6b7280", f"CL {chart.center:.4g}",
                        dash="4 3"))
    parts.append(_hline(to_y(chart.lcl), "#9ca3af", f"LCL {chart.lcl:.4g}",
                        dash="2 3"))
    parts.append(_polyline(xs, ys, "#2563eb"))
    flagged = np.asarray(flagged, dtype=np.int64)
    for x, y in zip(xs[flagged].tolist(), ys[flagged].tolist()):
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.5" fill="#dc2626"/>')
    parts.append(_footer(window_starts[0], window_starts[-1]))
    parts.append(tail)
    return "".join(parts)


def overlay_svg(title: str, minutes: np.ndarray,
                named_series: list[tuple[str, np.ndarray]]) -> str:
    """Z-normalized series overlaid on one axis, first series emphasized."""
    if not named_series:
        raise ValueError("overlay needs at least one series")
    normed = [(name, znorm(series)) for name, series in named_series]
    lo = min(float(s.min()) for _, s in normed)
    hi = max(float(s.max()) for _, s in normed)
    to_y = _scale(lo, hi, HEIGHT - MARGIN_BOTTOM, MARGIN_TOP)
    n = len(minutes)
    to_x = _scale(0.0, float(max(n - 1, 1)), MARGIN_LEFT, WIDTH - MARGIN_RIGHT)
    xs = to_x(np.arange(n))

    head, tail = _frame(title)
    parts = [head]
    legend_y = MARGIN_TOP + 4
    for i, (name, series) in enumerate(normed):
        color = "#2563eb" if i == 0 else _PALETTE[(i - 1) % len(_PALETTE)]
        width = 2.0 if i == 0 else 1.2
        parts.append(_polyline(xs, to_y(series), color, width))
        parts.append(f'<text x="{MARGIN_LEFT + 6}" y="{legend_y + 12 * i}" '
                     f'font-size="10" fill="{color}">{_escape(name)}</text>')
    parts.append(_footer(minutes[0], minutes[-1]))
    parts.append(tail)
    return "".join(parts)
