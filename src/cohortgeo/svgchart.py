"""Static SVG line charts for cohort series.

Emits self-contained SVG 1.1 documents with no external references, so a
rendered artifact can be asserted on structurally in tests (parse the XML,
count polylines) and diffed byte-for-byte between runs. All coordinates
are formatted to two decimals to keep output deterministic across
platforms.
"""

from __future__ import annotations

import html
import math
import sys
from typing import Sequence

from .analytics import CEISeries, Peak, _window_bounds
from .surface import _real

_PALETTE = ("#1b6ca8", "#c2432f", "#3a7d44", "#7d3a96", "#b07d2b", "#2b7d7d")
_MARGIN_LEFT = 62.0
_MARGIN_RIGHT = 18.0
_MARGIN_BOTTOM = 42.0
_AXIS_COLOR = "#333333"
_GRID_COLOR = "#dddddd"
_WINDOW_FILL = "#f2e8c9"
_PEAK_COLOR = "#c2432f"


def _fmt(v: float) -> str:
    # Computed coordinates are floats and get two decimals; the two fixed
    # text positions (title y, axis-title x) are ints and print as given.
    return f"{v:.2f}" if isinstance(v, float) else str(v)


def _nice_step(span: float, target: int) -> float:
    raw = span / target
    if raw == 0.0:
        return 0.0  # a span of a few subnormals underflows
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _ticks(lo: float, hi: float, target: int) -> list[float]:
    step = _nice_step(hi - lo, target) if hi > lo else 0.0
    if step == 0.0:  # an empty span, or a step below the smallest subnormal
        return [lo]
    # Integer multiples of the step, so the count is bounded at any
    # magnitude, rounded one digit below the step's leading digit so that
    # tiny steps keep their ticks apart.
    digits = 1 - math.floor(math.log10(step))
    return [round(k * step, digits)
            for k in range(math.ceil(lo / step), math.floor(hi / step + 1e-9) + 1)]


def render_series_chart(
    series_list: Sequence[CEISeries],
    *,
    width: int = 900,
    height: int = 420,
    title: str = "",
    window: tuple[int, int] | None = None,
    peaks: Sequence[Peak] | None = None,
) -> str:
    """Render birth year (x) against cohort index value (y).

    One polyline per series. ``window`` shades an analysis range;
    ``peaks`` draws labelled brackets above the detected runs. The legend
    names each series by its source label and sex.
    """
    if not series_list:
        raise ValueError("need at least one series to chart")

    margin_top = 34.0 if title else 16.0
    x0 = _MARGIN_LEFT
    size = ValueError(f"chart size must be real numbers, not {(width, height)!r}")
    x1 = _real(width, size) - _MARGIN_RIGHT
    y0 = _real(height, size) - _MARGIN_BOTTOM
    y1 = margin_top + (16.0 if peaks else 0.0)
    if x1 <= x0 or y0 <= y1:
        raise ValueError("chart dimensions too small for the fixed margins")

    year_lo = min(s.first_year for s in series_list)
    year_hi = max(s.last_year for s in series_list)
    # Values are >= 0, so a zero maximum is the only degenerate scale; the
    # headroom stops at the largest float rather than overflowing to inf.
    value_hi = min((max(float(s.values.max()) for s in series_list) or 1.0) * 1.05,
                   sys.float_info.max)
    year_span = max(year_hi - year_lo, 1)

    def sx(year: float) -> float:
        return x0 + (year - year_lo) / year_span * (x1 - x0)

    def sy(value: float) -> float:
        return y0 - value / value_hi * (y0 - y1)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]

    def line(ax: float, ay: float, bx: float, by: float, color: str, stroke: float):
        parts.append(f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(bx)}" '
                     f'y2="{_fmt(by)}" stroke="{color}" stroke-width="{stroke}"/>')

    def text(x: float, y: float, body: object, size: int,
             anchor: str | None = "middle", extra: str = ""):
        anchor_attr = f' text-anchor="{anchor}"' if anchor else ""
        parts.append(f'<text x="{_fmt(x)}" y="{_fmt(y)}"{anchor_attr} '
                     f'font-family="sans-serif" font-size="{size}"{extra}>'
                     f'{html.escape(str(body), quote=False)}</text>')

    if title:
        text(width / 2, 20, title, 14)
    if window is not None:
        w0, w1 = _window_bounds(window)
        w0, w1 = max(w0, year_lo), min(w1, year_hi)
        if w1 > w0:
            parts.append(f'<rect x="{_fmt(sx(w0))}" y="{_fmt(y1)}" '
                         f'width="{_fmt(sx(w1) - sx(w0))}" height="{_fmt(y0 - y1)}" '
                         f'fill="{_WINDOW_FILL}"/>')

    # a short series gets sub-year steps; birth years are whole, so only
    # whole-year ticks are drawn
    for tick in (t for t in _ticks(year_lo, year_hi, 8) if t == int(t)):
        px = sx(tick)
        line(px, y1, px, y0, _GRID_COLOR, 1)
        text(px, y0 + 16, int(tick), 11)
    for tick in _ticks(0.0, value_hi, 5):
        py = sy(tick)
        line(x0, py, x1, py, _GRID_COLOR, 1)
        text(x0 - 6, py + 4, f"{tick:.3g}", 11, anchor="end")

    # axes on top of the grid
    line(x0, y0, x1, y0, _AXIS_COLOR, 1.5)
    line(x0, y0, x0, y1, _AXIS_COLOR, 1.5)
    text((x0 + x1) / 2, y0 + 34, "birth year", 12)
    y_mid = (y0 + y1) / 2
    text(14, y_mid, "CEI", 12, extra=f' transform="rotate(-90 14 {_fmt(y_mid)})"')

    for idx, series in enumerate(series_list):
        points = " ".join(f"{_fmt(sx(int(y)))},{_fmt(sy(v))}" for y, v, _ in series)
        parts.append(f'<polyline fill="none" stroke="{_PALETTE[idx % len(_PALETTE)]}" '
                     f'stroke-width="1.5" points="{points}"/>')

    bracket_y = y1 - 6.0
    for p in peaks or ():
        px0, px1 = sx(p.start_year), sx(p.end_year)
        line(px0, bracket_y, px1, bracket_y, _PEAK_COLOR, 2)
        label = (str(p.start_year) if p.start_year == p.end_year
                 else f"{p.start_year}-{p.end_year}")
        text((px0 + px1) / 2, bracket_y - 4, label, 10, extra=f' fill="{_PEAK_COLOR}"')

    legend_y = y1 + 14.0
    for idx, series in enumerate(series_list):
        pieces = [series.source_label or f"series {idx + 1}"]
        if series.sex is not None:
            pieces.append(series.sex.value)
        ly = legend_y + 16.0 * idx
        line(x0 + 8, ly - 4, x0 + 30, ly - 4, _PALETTE[idx % len(_PALETTE)], 2)
        text(x0 + 36, ly, " / ".join(pieces), 11, anchor=None, extra=' fill="#222222"')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
