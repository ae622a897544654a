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
from typing import Sequence

from .analytics import CEISeries, Peak

_PALETTE = ("#1b6ca8", "#c2432f", "#3a7d44", "#7d3a96", "#b07d2b", "#2b7d7d")
_MARGIN_LEFT = 62.0
_MARGIN_RIGHT = 18.0
_MARGIN_BOTTOM = 42.0
_AXIS_COLOR = "#333333"
_GRID_COLOR = "#dddddd"
_WINDOW_FILL = "#f2e8c9"
_PEAK_COLOR = "#c2432f"


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _nice_step(span: float, target: int) -> float:
    if span <= 0:
        return 1.0
    raw = span / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        return [lo]
    step = _nice_step(hi - lo, target)
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-9 * step:
        out.append(round(v, 10))
        v += step
    return out


def render_series_chart(
    series_list: Sequence[CEISeries],
    *,
    width: int = 900,
    height: int = 420,
    title: str = "",
    window: tuple[int, int] | None = None,
    peaks: Sequence[Peak] | None = None,
    labels: Sequence[str] | None = None,
) -> str:
    """Render birth year (x) against cohort index value (y).

    One polyline per series. ``window`` shades an analysis range;
    ``peaks`` draws labelled brackets above the detected runs. ``labels``
    overrides the legend text (defaults to each series' source label and
    sex).
    """
    if not series_list:
        raise ValueError("need at least one series to chart")
    if labels is not None and len(labels) != len(series_list):
        raise ValueError("labels must match series_list in length")

    margin_top = 34.0 if title else 16.0
    x0 = _MARGIN_LEFT
    x1 = float(width) - _MARGIN_RIGHT
    y0 = float(height) - _MARGIN_BOTTOM
    y1 = margin_top + (16.0 if peaks else 0.0)
    if x1 <= x0 or y0 <= y1:
        raise ValueError("chart dimensions too small for the fixed margins")

    year_lo = min(s.first_year for s in series_list)
    year_hi = max(s.last_year for s in series_list)
    value_hi = max(float(s.values.max()) for s in series_list)
    if value_hi <= 0:
        value_hi = 1.0
    value_hi *= 1.05
    year_span = max(year_hi - year_lo, 1)

    def sx(year: float) -> float:
        return x0 + (year - year_lo) / year_span * (x1 - x0)

    def sy(value: float) -> float:
        return y0 - value / value_hi * (y0 - y1)

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    parts.append(f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>')
    if title:
        parts.append(
            f'<text x="{_fmt(width / 2)}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{html.escape(title, quote=False)}</text>'
        )

    if window is not None:
        w0 = max(float(window[0]), year_lo)
        w1 = min(float(window[1]), year_hi)
        if w1 > w0:
            parts.append(
                f'<rect x="{_fmt(sx(w0))}" y="{_fmt(y1)}" '
                f'width="{_fmt(sx(w1) - sx(w0))}" height="{_fmt(y0 - y1)}" '
                f'fill="{_WINDOW_FILL}"/>'
            )

    for tick in _ticks(year_lo, year_hi, 8):
        px = sx(tick)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(y1)}" x2="{_fmt(px)}" '
            f'y2="{_fmt(y0)}" stroke="{_GRID_COLOR}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_fmt(y0 + 16)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{int(tick)}</text>'
        )
    for tick in _ticks(0.0, value_hi, 5):
        py = sy(tick)
        parts.append(
            f'<line x1="{_fmt(x0)}" y1="{_fmt(py)}" x2="{_fmt(x1)}" '
            f'y2="{_fmt(py)}" stroke="{_GRID_COLOR}" stroke-width="1"/>'
        )
        label = f"{tick:.3g}"
        parts.append(
            f'<text x="{_fmt(x0 - 6)}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )

    # axes on top of the grid
    parts.append(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y0)}" '
        f'stroke="{_AXIS_COLOR}" stroke-width="1.5"/>'
    )
    parts.append(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x0)}" y2="{_fmt(y1)}" '
        f'stroke="{_AXIS_COLOR}" stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{_fmt((x0 + x1) / 2)}" y="{_fmt(y0 + 34)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">birth year</text>'
    )
    parts.append(
        f'<text x="14" y="{_fmt((y0 + y1) / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 14 {_fmt((y0 + y1) / 2)})">CEI</text>'
    )

    for idx, series in enumerate(series_list):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(
            f"{_fmt(sx(int(y)))},{_fmt(sy(v))}"
            for y, v, _ in series
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )

    if peaks:
        bracket_y = y1 - 6.0
        for p in peaks:
            px0, px1 = sx(p.start_year), sx(p.end_year)
            parts.append(
                f'<line x1="{_fmt(px0)}" y1="{_fmt(bracket_y)}" '
                f'x2="{_fmt(px1)}" y2="{_fmt(bracket_y)}" '
                f'stroke="{_PEAK_COLOR}" stroke-width="2"/>'
            )
            text = (str(p.start_year) if p.start_year == p.end_year
                    else f"{p.start_year}-{p.end_year}")
            parts.append(
                f'<text x="{_fmt((px0 + px1) / 2)}" y="{_fmt(bracket_y - 4)}" '
                f'text-anchor="middle" font-family="sans-serif" font-size="10" '
                f'fill="{_PEAK_COLOR}">{text}</text>'
            )

    legend_y = y1 + 14.0
    for idx, series in enumerate(series_list):
        if labels is not None:
            text = labels[idx]
        else:
            pieces = [series.source_label or f"series {idx + 1}"]
            if series.sex is not None:
                pieces.append(series.sex.value)
            text = " / ".join(pieces)
        color = _PALETTE[idx % len(_PALETTE)]
        ly = legend_y + 16.0 * idx
        parts.append(
            f'<line x1="{_fmt(x0 + 8)}" y1="{_fmt(ly - 4)}" '
            f'x2="{_fmt(x0 + 30)}" y2="{_fmt(ly - 4)}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_fmt(x0 + 36)}" y="{_fmt(ly)}" font-family="sans-serif" '
            f'font-size="11" fill="#222222">{html.escape(text, quote=False)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
