"""The one CSV writer of every output table.

Header row, comma separator, UTF-8, decimal point. Floats carry 17
significant digits so they round-trip losslessly, None is an empty cell,
and ints and strings are written as they are.
"""

from __future__ import annotations

import csv
from typing import Iterable, Sequence


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):  # numpy float64 included
        return format(value, ".17g")
    return value


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and then each row of ``rows`` to ``path``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)
