"""The CSV writer and the JSON writer behind every trace and report.

CSV floats are written as ``repr(float(v))``, so they round-trip exactly and
read the same for Python floats and NumPy float64 scalars (whose repr under
NumPy 2 is ``np.float64(...)``). Booleans are written as 0/1; ints, strings
and None pass through to the csv module.
"""

from __future__ import annotations

import csv
import json


def _cell(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return repr(float(value))
    return value


def write_csv(path, header, rows) -> None:
    """Write the header row, then one line per row of values."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def write_json(path, payload) -> None:
    """Write ``payload`` with sorted keys and a trailing newline; values JSON
    cannot encode are written as their ``str``."""
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, default=str)
        fh.write("\n")
