"""Minimal SVG emitters: line plots and heat grids, no external renderer.

Plots are a convenience; the CSVs next to them are the contract. Each
emitter returns its SVG text, deterministic for identical inputs.
"""

from __future__ import annotations

import numpy as np

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_W, _H = 720, 440
_ML, _MR, _MT, _MB = 64, 16, 34, 44
_PW, _PH = _W - _ML - _MR, _H - _MT - _MB  # the plot area


def _ticks(lo: float, hi: float) -> np.ndarray:
    """Five evenly spaced tick values from lo to hi; lo alone for an empty or non-finite range."""
    if not np.isfinite(lo) or not np.isfinite(hi) or lo == hi:
        return np.array([lo])
    return np.linspace(lo, hi, 5)


def _fmt(v: float) -> str:
    return format(float(v), ".4g")


def _write_svg(title: str, xlabel: str, ylabel: str, plot, legend=()) -> str:
    """An SVG's text: the head and title, the ``plot`` parts, the axis labels, the ``legend`` parts."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="11">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W/2:.0f}" y="18" text-anchor="middle" font-size="13">{title}</text>',
        *plot,
        f'<text x="{_ML+_PW/2:.0f}" y="{_H-8}" text-anchor="middle">{xlabel}</text>'
        f'<text x="14" y="{_MT+_PH/2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {_MT+_PH/2:.0f})">{ylabel}</text>',
        *legend,
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def line_plot(x, series: dict, title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    """An SVG with one polyline per named series over a shared x axis."""
    x = np.asarray(x, dtype=float)
    ys = {name: np.asarray(v, dtype=float) for name, v in series.items()}
    x_lo, x_hi = float(x.min()), float(x.max())
    all_y = np.concatenate(list(ys.values()))
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0

    def sx(v):
        return _ML + (v - x_lo) / (x_hi - x_lo) * _PW

    def sy(v):
        return _MT + _PH - (v - y_lo) / (y_hi - y_lo) * _PH

    plot = [f'<rect x="{_ML}" y="{_MT}" width="{_PW}" height="{_PH}" fill="none" stroke="#444"/>']
    for tv in _ticks(x_lo, x_hi):
        plot.append(
            f'<line x1="{sx(tv):.1f}" y1="{_MT+_PH}" x2="{sx(tv):.1f}" y2="{_MT+_PH+4}" stroke="#444"/>'
            f'<text x="{sx(tv):.1f}" y="{_MT+_PH+16}" text-anchor="middle">{_fmt(tv)}</text>'
        )
    for tv in _ticks(y_lo, y_hi):
        plot.append(
            f'<line x1="{_ML-4}" y1="{sy(tv):.1f}" x2="{_ML}" y2="{sy(tv):.1f}" stroke="#444"/>'
            f'<text x="{_ML-7}" y="{sy(tv)+3:.1f}" text-anchor="end">{_fmt(tv)}</text>'
        )
    legend = []
    px = sx(x)
    for i, (name, y) in enumerate(ys.items()):
        color = _COLORS[i % len(_COLORS)]
        # sx and sy round each array element as they round a scalar: same digits per point
        xy = np.column_stack([px, sy(y)]).ravel().tolist()
        pts = " ".join(["%.2f,%.2f"] * x.size) % tuple(xy)
        legend.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.3"/>')
        lx, lyy = _ML + _PW - 110, _MT + 14 + 15 * i
        legend.append(
            f'<line x1="{lx}" y1="{lyy-4}" x2="{lx+18}" y2="{lyy-4}" stroke="{color}" stroke-width="2"/>'
            f'<text x="{lx+23}" y="{lyy}">{name}</text>'
        )
    return _write_svg(title, xlabel, ylabel, plot, legend)


def heat_grid(x, y, z, title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    """An SVG heat grid of z (len(y) rows by len(x) columns)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if z.shape != (y.size, x.size):
        raise ValueError("z must have shape (len(y), len(x))")
    z_lo, z_hi = float(np.nanmin(z)), float(np.nanmax(z))
    span = z_hi - z_lo or 1.0
    cw, ch = _PW / x.size, _PH / y.size
    # a white-to-blue ramp; each cell's scalar ops element-wise, and %d truncates as int() does
    px = np.broadcast_to(_ML + np.arange(x.size) * cw, z.shape)
    py = np.broadcast_to((_MT + _PH - np.arange(1, y.size + 1) * ch)[:, None], z.shape)
    t = (z - z_lo) / span
    cells = np.stack([px, py, 255 * (1 - 0.85 * t), 255 * (1 - 0.55 * t)], axis=-1)
    rect = (f'<rect x="%.2f" y="%.2f" width="{cw+0.5:.2f}" height="{ch+0.5:.2f}" '
            'fill="rgb(%d,%d,255)"/>')
    plot = ["\n".join([rect] * z.size) % tuple(cells.ravel().tolist())]
    plot.append(f'<rect x="{_ML}" y="{_MT}" width="{_PW}" height="{_PH}" fill="none" stroke="#444"/>')
    for tv, pos in [(x[0], _ML), (x[-1], _ML + _PW)]:
        plot.append(f'<text x="{pos}" y="{_MT+_PH+16}" text-anchor="middle">{_fmt(tv)}</text>')
    for tv, pos in [(y[0], _MT + _PH), (y[-1], _MT)]:
        plot.append(f'<text x="{_ML-7}" y="{pos+3}" text-anchor="end">{_fmt(tv)}</text>')
    return _write_svg(title, xlabel, ylabel, plot)
