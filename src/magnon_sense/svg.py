"""Minimal deterministic SVG 1.1 line charts.

Convenience renderings of the CSV datasets; byte-identical for identical
inputs (no timestamps, no random ids).  The x axis is linear; a log-scale
y axis drops nonpositive points.
"""

from __future__ import annotations

import math

__all__ = ["line_chart"]

_WIDTH, _HEIGHT = 860, 520
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 80, 170, 46, 58

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")


def _transform(values, log: bool):
    if log:
        return [math.log10(v) if v > 0 else None for v in values]
    return [float(v) for v in values]


def _ticks(lo: float, hi: float, log: bool) -> list[float]:
    if log:
        first, last = math.ceil(lo - 1e-9), math.floor(hi + 1e-9)
        if last < first:
            return [lo, hi]
        return [float(t) for t in range(int(first), int(last) + 1)]
    if hi == lo:
        return [lo]
    step = (hi - lo) / 5.0
    return [lo + i * step for i in range(6)]


def _tick_label(t: float, log: bool) -> str:
    if log:
        return f"1e{int(round(t))}"
    return f"{t:.3g}"


def line_chart(path, x, series, title, xlabel, ylabel, ylog=False) -> None:
    """Write a polyline chart of ``series`` = [(label, y-array), ...] vs x."""
    xs = [float(v) for v in x]
    ys_all = [_transform(y, ylog) for _, y in series]
    finite_x = [v for v in xs if math.isfinite(v)]
    finite_y = [v for vals in ys_all for v in vals
                if v is not None and math.isfinite(v)]
    if not finite_x or not finite_y:
        raise ValueError("no drawable points")
    x_lo, x_hi = min(finite_x), max(finite_x)
    y_lo, y_hi = min(finite_y), max(finite_y)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(v):
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return _MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="black"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="26" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]

    for t in _ticks(x_lo, x_hi, False):
        xt = px(t)
        parts.append(f'<line x1="{xt:.2f}" y1="{_MARGIN_T + plot_h}" '
                     f'x2="{xt:.2f}" y2="{_MARGIN_T + plot_h + 5}" stroke="black"/>')
        parts.append(f'<text x="{xt:.2f}" y="{_MARGIN_T + plot_h + 20}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{_tick_label(t, False)}</text>')
    for t in _ticks(y_lo, y_hi, ylog):
        yt = py(t)
        parts.append(f'<line x1="{_MARGIN_L - 5}" y1="{yt:.2f}" '
                     f'x2="{_MARGIN_L}" y2="{yt:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN_L - 9}" y="{yt + 4:.2f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{_tick_label(t, ylog)}</text>')
    cy = _MARGIN_T + plot_h / 2
    parts.append(f'<text x="{_MARGIN_L + plot_w / 2:.1f}" '
                 f'y="{_HEIGHT - 16}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13">{xlabel}</text>')
    parts.append(f'<text x="22" y="{cy:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 22 {cy:.1f})">{ylabel}</text>')

    for i, (label, _) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = []
        for xv, yv in zip(xs, ys_all[i]):
            if yv is None or not (math.isfinite(xv) and math.isfinite(yv)):
                continue
            pts.append(f"{px(xv):.2f},{py(yv):.2f}")
        if pts:
            parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                         f'stroke="{color}" stroke-width="1.6"/>')
        ly = _MARGIN_T + 16 + 18 * i
        lx = _MARGIN_L + plot_w + 12
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="1.6"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                     f'font-size="12">{label}</text>')

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
