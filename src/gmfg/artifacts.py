"""Atomic artifact writes and the one CSV format all artifacts share.

A CSV artifact is optional ``# key=value`` metadata lines, a header row,
then one row per table entry: integer columns as ``%d``, all other columns
as ``%.17g`` (round-trip exact), every line ending in ``\\r\\n``.
"""

import os

import numpy as np


def atomic_write(path, text):
    """Write ``text`` to ``path`` through a temporary file and a rename."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def index_columns(*tables):
    """Export columns of same-shape tables: one index column per axis, in
    row-major order, followed by each table flattened."""
    shape = np.shape(tables[0])
    return [*np.indices(shape).reshape(len(shape), -1),
            *(np.ravel(t) for t in tables)]


def write_csv(path, header, columns, meta=None):
    """Write equal-length column arrays under ``header`` as one CSV file.

    ``meta`` (a mapping) becomes leading ``# key=value`` lines.
    """
    cols = [np.asarray(c) for c in columns]
    row = ",".join("%d" if np.issubdtype(c.dtype, np.integer) else "%.17g"
                   for c in cols) + "\r\n"
    lines = [f"# {key}={value}\r\n" for key, value in (meta or {}).items()]
    lines.append(",".join(header) + "\r\n")
    lines.extend(map(row.__mod__, zip(*(c.tolist() for c in cols), strict=True)))
    atomic_write(path, "".join(lines))
