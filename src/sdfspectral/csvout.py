"""The one CSV formatter of every output table, and the one JSON formatter of every output record.

Each returns a file's text, which ``cli.run`` alone writes. Header row,
comma separator, UTF-8, decimal point, ``\\r\\n`` row terminators.
Floats carry 17 significant digits so they round-trip losslessly, None
is an empty cell, and ints and strings are written as they are.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import chain
from typing import Sequence

import numpy as np


def _text(value) -> str:
    """A cell as ``csv.writer`` writes it in a row of several: a float to 17 digits, None empty."""
    buf = io.StringIO()
    csv.writer(buf).writerow(["", format(value, ".17g") if isinstance(value, float) else value])
    return buf.getvalue()[1:-2]  # drop the empty first cell's separator and the row terminator


def _column(values) -> tuple[str, list]:
    """A column's ``%`` conversion and the cells it converts.

    A float64 column is ``%.17g`` (the same digits as ``format(v, ".17g")``),
    an integer column ``%d``; any other column is text, each cell quoted by
    the csv module.
    """
    if isinstance(values, np.ndarray):
        if values.dtype == np.float64:
            return "%.17g", values.tolist()
        if values.dtype.kind in "iu":
            return "%d", values.tolist()
    values = list(values)
    if all(isinstance(v, float) for v in values):  # numpy float64 included
        return "%.17g", values
    if all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values):
        return "%d", values
    return "%s", [_text(v) for v in values]


def write_csv(header: Sequence[str], columns: Sequence) -> str:
    """The text of ``header`` and then the rows of ``columns``, equal-length sequences.

    The table is formatted with one ``%`` template: one conversion per
    column, built from the column's kind.
    """
    kinds, cells = zip(*map(_column, columns))
    rows = list(zip(*cells))
    buf = io.StringIO()
    csv.writer(buf).writerow(header)
    return buf.getvalue() + (",".join(kinds) + "\r\n") * len(rows) % tuple(chain.from_iterable(rows))


def write_json(payload) -> str:
    """``payload`` as JSON indented by two spaces, with a final newline."""
    return json.dumps(payload, indent=2) + "\n"
