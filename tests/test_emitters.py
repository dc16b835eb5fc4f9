"""Character-level checks of the table text and the SVG polylines against per-cell references."""

import csv
import io
import math
import re

import numpy as np
import pytest

from sdfspectral import svgplot
from sdfspectral.csvout import write_csv


def _reference_csv(header, rows) -> str:
    """The table as csv.writer writes it cell by cell: floats to 17 digits, None empty."""

    def cell(value):
        if value is None:
            return ""
        if isinstance(value, float):
            return format(value, ".17g")
        return value

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([cell(v) for v in row] for row in rows)
    return buf.getvalue()


SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1, 1 / 3]
N = len(SPECIAL)

COLUMNS = {
    "float64": np.array(SPECIAL),
    "float_list": list(SPECIAL),
    "float64_scalars": [np.float64(v) for v in SPECIAL],
    "int64": np.arange(-3, N - 3, dtype=np.int64),
    "int32": np.arange(N, dtype=np.int32),
    "int_list": [0, 1, -5, 2**70, 7, 0, 12, -1],
    "numpy_int_list": [np.int64(v) for v in range(N)],
    "bool_list": [True, False] * (N // 2),
    "float_or_none": [None, 1.5, None, -0.0, math.nan, None, 2.0, None],
    "int_or_float": [1, 2.5, 3, math.inf, 0, -1, 4, 5e-324],
    "text": ["a,b", 'say "hi"', "plain", "", "line\nbreak", "x", "inf", "€"],
    "float32": np.array(SPECIAL[:4] + [0.1, 0.25, 1 / 3, 2.5], dtype=np.float32),
}


@pytest.mark.parametrize("names", [
    list(COLUMNS),
    ["int64", "float64", "float64", "float64"],  # the layout of series.csv
    ["text", "float_or_none", "float_or_none", "float_or_none", "float_or_none"],
])
def test_write_csv_matches_the_per_cell_writer(names):
    columns = [COLUMNS[name] for name in names]
    assert write_csv(names, columns) == _reference_csv(names, zip(*columns))


def test_write_csv_empty_table():
    assert write_csv(["t", "m"], [np.arange(0), np.empty(0)]) == "t,m\r\n"


def _reference_points(x, series: dict) -> list[str]:
    """The polyline points of line_plot, formatted point by point."""
    x = np.asarray(x, dtype=float)
    ys = [np.asarray(v, dtype=float) for v in series.values()]
    x_lo, x_hi = float(x.min()), float(x.max())
    all_y = np.concatenate(ys)
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    ml, mt, pw, ph = svgplot._ML, svgplot._MT, svgplot._PW, svgplot._PH

    def sx(v):
        return ml + (v - x_lo) / (x_hi - x_lo) * pw

    def sy(v):
        return mt + ph - (v - y_lo) / (y_hi - y_lo) * ph

    return [" ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, y)) for y in ys]


@pytest.mark.parametrize("series", [
    {"neg": -2.0 + 3.0 * np.random.default_rng(7).standard_normal(301),
     "wide": np.linspace(-1e3, 5e2, 301)},
    {"constant": np.full(301, 0.7)},
])
def test_line_plot_points_match_the_per_point_format(series):
    x = np.linspace(-0.031, 0.047, 301)
    points = re.findall(r'<polyline points="([^"]*)"', svgplot.line_plot(x, series))
    assert points == _reference_points(x, series)


def _reference_cells(x, y, z) -> list[str]:
    """The cell rects of heat_grid, formatted cell by cell."""
    z_lo, z_hi = float(np.nanmin(z)), float(np.nanmax(z))
    span = z_hi - z_lo or 1.0
    cw, ch = svgplot._PW / len(x), svgplot._PH / len(y)
    cells = []
    for j in range(len(y)):
        for i in range(len(x)):
            t = (z[j, i] - z_lo) / span
            r, g = int(255 * (1 - 0.85 * t)), int(255 * (1 - 0.55 * t))
            px, py = svgplot._ML + i * cw, svgplot._MT + svgplot._PH - (j + 1) * ch
            cells.append(f'<rect x="{px:.2f}" y="{py:.2f}" width="{cw+0.5:.2f}" '
                         f'height="{ch+0.5:.2f}" fill="rgb({r},{g},255)"/>')
    return cells


@pytest.mark.parametrize("shape, z", [
    ((11, 11), lambda n: np.random.default_rng(5).standard_normal(n) * 1e-3 - 0.2),
    ((3, 5), lambda n: np.linspace(-7.0, 2.0, n)),
    ((4, 1), lambda n: np.full(n, 0.3)),
])
def test_heat_grid_cells_match_the_per_cell_format(shape, z):
    x, y = np.linspace(-1.0, 1.0, shape[1]), np.linspace(0.5, 2.5, shape[0])
    z = z(shape[0] * shape[1]).reshape(shape)
    text = svgplot.heat_grid(x, y, z)
    cells = re.findall(r'<rect x="[^"]*" y="[^"]*" width="[^"]*" height="[^"]*" '
                       r'fill="rgb[^"]*"/>', text)
    assert cells == _reference_cells(x, y, z)
    assert text.count("<rect") == len(cells) + 2  # the background and the frame


@pytest.mark.parametrize("z", [np.zeros((3, 2)), np.zeros((2, 2)), np.zeros(6)],
                         ids=["transposed", "too_few_rows", "flat"])
def test_heat_grid_refuses_a_z_of_the_wrong_shape(z):
    with pytest.raises(ValueError, match=r"^z must have shape \(len\(y\), len\(x\)\)$"):
        svgplot.heat_grid([0.0, 1.0, 2.0], [0.0, 1.0], z)
