"""CSV tables of numbers: the one reader and writer behind every CSV file.

A table is a header line of column names followed by one line per row, with
``\\r\\n`` line ends.  Each value is written as the ``repr`` of the Python
scalar, so floats round-trip exactly, integers and booleans appear as
written and ``None`` as ``None``.
"""

from __future__ import annotations

import warnings

import numpy as np

_BLOCK = 8192  # rows formatted per write


def write_table(path, header, columns) -> None:
    """Write ``header`` and the rows formed by ``columns``: one equal-length
    1-d numpy array or list per column.  List items are written as they are,
    array items as the Python scalars of ``tolist``."""
    columns = [c if isinstance(c, np.ndarray) else np.array(c, dtype=object)
               for c in columns]
    rows = len(columns[0]) if columns else 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, rows, _BLOCK):
            block = [c[start:start + _BLOCK].tolist() for c in columns]
            fh.write("".join(",".join(map(repr, row)) + "\r\n"
                             for row in zip(*block)))


def read_table(path) -> tuple[list, np.ndarray]:
    """The header and the (rows, columns) float array of a table; a table
    without rows gives shape (0, columns)."""
    with open(path, newline="") as fh:
        line = fh.readline()
        if not line:
            raise ValueError(f"{path}: empty file, expected a header line")
        header = line.rstrip("\r\n").split(",")
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            values = np.loadtxt(fh, delimiter=",", ndmin=2)
    if values.size == 0:
        return header, values.reshape(0, len(header))
    if values.shape[1] != len(header):
        raise ValueError(f"{path}: {values.shape[1]} columns under a header "
                         f"of {len(header)}")
    return header, values
