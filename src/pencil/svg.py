"""Deterministic, dependency-free SVG line charts.

Identical input produces byte-identical output: no timestamps, no random
ids, fixed float formatting.  That keeps rendered figures diffable in CI.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["render_line_chart"]

_PALETTE = ("#1f6feb", "#d1242f", "#1a7f37", "#953800", "#8250df", "#57606a")

_WIDTH = 800
_HEIGHT = 560
_MARGIN_L = 72
_MARGIN_R = 24
_MARGIN_T = 40
_MARGIN_B = 56


def _fmt(value: float) -> str:
    out = f"{value:.6g}"
    return "0" if out in ("-0", "-0.0") else out


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0 else 0.0
    if mag == 0.0:  # a span of a few subnormals has no float step: one tick
        return [lo]
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


def _axis_range(axis: str, values: list[float]) -> tuple[float, float]:
    """The data range of one axis (a unit span for constant data), padded by 5% at each end.

    ValueError, naming the axis and its data range, where the padded span
    is not a positive finite float: it overflows the float range, or a unit
    span is below the resolution of the data.
    """
    lo, hi = min(values), max(values)
    top = lo + 1.0 if hi == lo else hi
    pad = 0.05 * (top - lo)
    start, stop = lo - pad, top + pad
    if not 0 < stop - start < math.inf:
        raise ValueError(
            f"cannot chart the {axis} data range [{lo!r}, {hi!r}]: "
            f"its padded span {stop - start!r} is not a positive finite float"
        )
    return start, stop


def render_line_chart(
    series: Sequence[tuple[str, Sequence[tuple[float, float]]]],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    header_comment: str = "",
) -> str:
    """Render labelled (x, y) polylines into a self-contained SVG document.

    An empty series list, or an axis whose padded data range is not a
    positive finite float span (`_axis_range`), raises ValueError before
    anything is rendered.
    """
    if not series or all(not pts for _, pts in series):
        raise ValueError("cannot render an empty series list")
    x_lo, x_hi = _axis_range("x", [p[0] for _, pts in series for p in pts])
    y_lo, y_hi = _axis_range("y", [p[1] for _, pts in series for p in pts])

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return _MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    if header_comment:
        lines.append(f"<!-- {header_comment} -->")
    lines.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>')
    if title:
        lines.append(
            f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{title}</text>'
        )

    for t in _nice_ticks(x_lo, x_hi):
        px = _fmt(sx(t))
        y0, y1 = _MARGIN_T, _MARGIN_T + plot_h
        lines.append(f'<line x1="{px}" y1="{y0}" x2="{px}" y2="{y1}" stroke="#eeeeee"/>')
        lines.append(
            f'<text x="{px}" y="{y1 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        py = _fmt(sy(t))
        x0, x1 = _MARGIN_L, _MARGIN_L + plot_w
        lines.append(f'<line x1="{x0}" y1="{py}" x2="{x1}" y2="{py}" stroke="#eeeeee"/>')
        lines.append(
            f'<text x="{x0 - 6}" y="{py}" text-anchor="end" dominant-baseline="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )

    frame = (
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333"/>'
    )
    lines.append(frame)
    if x_label:
        lines.append(
            f'<text x="{_MARGIN_L + plot_w // 2}" y="{_HEIGHT - 12}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{x_label}</text>'
        )
    if y_label:
        cy = _MARGIN_T + plot_h // 2
        lines.append(
            f'<text x="18" y="{cy}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="13" transform="rotate(-90 18 {cy})">{y_label}</text>'
        )

    # sx and sy written out per point, with no call per value: 72 + t and
    # 504 - u are never -0.0, so only the tick labels need _fmt's "-0" rule
    x_span, y_span = x_hi - x_lo, y_hi - y_lo
    for idx, (label, pts) in enumerate(series):
        if not pts:
            continue
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(
            [
                "%.6g,%.6g"
                % (_MARGIN_L + (x - x_lo) / x_span * plot_w, _MARGIN_T + plot_h - (y - y_lo) / y_span * plot_h)
                for x, y in pts
            ]
        )
        lines.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')

    legend_y = _MARGIN_T + 14
    for idx, (label, _) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        ly = legend_y + idx * 18
        lx = _MARGIN_L + plot_w - 150
        lines.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        lines.append(
            f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" font-size="12">{label}</text>'
        )

    lines.append("</svg>")
    return "\n".join(lines) + "\n"
