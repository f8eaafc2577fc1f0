"""Minimal self-contained SVG writer for line plots on log or linear axes.

No plotting dependency: ``write_svg`` draws every plot in an 800x600
viewport, and ``_axis`` owns all that depends on the axis type.
"""
from __future__ import annotations

import math

WIDTH = 800
HEIGHT = 600
MARGIN_LEFT = 80
MARGIN_RIGHT = 30
MARGIN_TOP = 50
MARGIN_BOTTOM = 60

COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _axis(values, px_lo, px_hi, log):
    """Padded range, value -> pixel map and (pixel, label) ticks of one axis.

    Log axes pad a third of a decade and tick decades; linear ones pad 5% of
    the range (of 1 for constant data) and tick quarters."""
    lo, hi = min(values), max(values)
    if log:
        pad = 10 ** (1.0 / 3.0)
        lo, hi = lo / pad, hi * pad
        decades = range(math.floor(math.log10(lo)), math.ceil(math.log10(hi)) + 1)
        ticks = [(10.0 ** d, f"1e{d}") for d in decades if lo <= 10.0 ** d <= hi]
        scale = math.log10
    else:
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        pad = 0.05 * (hi - lo)
        lo, hi = lo - pad, hi + pad
        ticks = [(v, f"{v:.3g}") for v in
                 (lo + frac * (hi - lo) for frac in (0.0, 0.25, 0.5, 0.75, 1.0))]
        scale = float
    start, span = scale(lo), scale(hi) - scale(lo)

    def to_px(v):
        return px_lo + (scale(v) - start) / span * (px_hi - px_lo)
    return lo, hi, to_px, [(to_px(v), label) for v, label in ticks]


def _polyline(points, color, dashed=False):
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
            f'{dash} points="{pts}"/>')


def _text(x, y, s, size=13, anchor="start"):
    return (f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" '
            f'font-family="sans-serif" text-anchor="{anchor}">{s}</text>')


def write_svg(path, series, *, log: bool, title: str = "", xlabel: str = "",
              ylabel: str = "", reference_slope: float | None = None) -> None:
    """Plot series, an iterable of (label, xs, ys), on log10 or linear axes.

    Points that are not finite, or not positive on log axes, are skipped;
    ValueError if no x or no y is left. The dashed reference line (for log
    axes) has that slope through the first positive point of series 0.
    """
    series = [(lbl, list(xs), list(ys)) for lbl, xs, ys in series]

    def shown(v):
        return math.isfinite(v) and (v > 0 or not log)

    xs_all = [x for _, sx, _ in series for x in sx if shown(x)]
    ys_all = [y for _, _, sy in series for y in sy if shown(y)]
    if not xs_all or not ys_all:
        raise ValueError("nothing positive to plot on log axes" if log
                         else "nothing to plot")
    x0, x1 = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    y0, y1 = HEIGHT - MARGIN_BOTTOM, MARGIN_TOP
    xmin, xmax, fx, xticks = _axis(xs_all, x0, x1, log)
    ymin, ymax, fy, yticks = _axis(ys_all, y0, y1, log)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
             f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
             f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>']
    if title:
        parts.append(_text(WIDTH / 2, 28, title, size=16, anchor="middle"))
    parts.append(f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
                 'fill="none" stroke="black"/>')
    for px, label in xticks:
        parts += [f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" y2="{y1}" stroke="#dddddd"/>',
                  _text(px, y0 + 20, label, anchor="middle")]
    for py, label in yticks:
        parts += [f'<line x1="{x0}" y1="{py:.1f}" x2="{x1}" y2="{py:.1f}" stroke="#dddddd"/>',
                  _text(x0 - 8, py + 4, label, anchor="end")]
    parts += [_text((x0 + x1) / 2, HEIGHT - 18, xlabel, anchor="middle"),
              _text(18, (y0 + y1) / 2, ylabel, anchor="middle")]

    legend_y = y1 + 18
    for idx, (lbl, xs, ys) in enumerate(series):
        color = COLORS[idx % len(COLORS)]
        pts = [(fx(x), fy(y)) for x, y in zip(xs, ys) if shown(x) and shown(y)]
        if len(pts) >= 2:
            parts.append(_polyline(pts, color))
        parts += [f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" fill="{color}"/>'
                  for px, py in pts]
        parts += [_text(x0 + 12, legend_y, lbl, size=12),
                  f'<line x1="{x0 + 60 + 8 * len(lbl)}" y1="{legend_y - 4}" '
                  f'x2="{x0 + 90 + 8 * len(lbl)}" y2="{legend_y - 4}" '
                  f'stroke="{color}" stroke-width="2"/>']
        legend_y += 16

    _, xs, ys = series[0]
    anchor = next(((x, y) for x, y in zip(xs, ys) if x > 0 and y > 0), None)
    if reference_slope is not None and anchor:
        ax, ay = anchor
        ref = [(x, ay * (x / ax) ** reference_slope) for x in (xmin * 1.01, xmax * 0.99)]
        pts = [(fx(x), fy(min(max(y, ymin), ymax))) for x, y in ref]
        parts += [_polyline(pts, "#555555", dashed=True),
                  _text(x0 + 12, legend_y, f"reference slope {reference_slope:g}", size=12)]

    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
