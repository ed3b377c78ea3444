"""Atomic artifact writes and the shared CSV and JSON formats.

A CSV artifact is optional ``# key=value`` metadata lines, a header row,
then one row per table entry: integer columns as ``%d``, all other columns
as ``%.17g`` (round-trip exact), every line ending in ``\\r\\n``.

A JSON artifact is ``json.dumps(doc, sort_keys=True, indent=1)`` of the
document as plain values: dict keys as strings, tuples and arrays as lists,
numpy scalars as Python numbers and non-finite floats as ``null``. Its
documents are a few kilobytes, so the standard library's encoder writes
them whole.
"""

import contextlib
import json
import math
import os

import numpy as np


# rows formatted per block of a streamed CSV write
_CSV_BLOCK_ROWS = 4096


def atomic_write(path, blocks):
    """Write the text ``blocks`` (strings, consumed one at a time) to
    ``path`` through a temporary file and a rename. A failed write removes
    the temporary file and re-raises; ``path`` is left as it was."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.writelines(blocks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def index_columns(*tables):
    """Export columns of same-shape tables: one index column per axis, in
    row-major order, followed by each table flattened."""
    shape = np.shape(tables[0])
    return [*np.indices(shape).reshape(len(shape), -1),
            *(np.ravel(t) for t in tables)]


def write_csv(path, header, columns, meta=None):
    """Write equal-length column arrays under ``header`` as one CSV file.

    ``meta`` (a mapping) becomes leading ``# key=value`` lines. Rows are
    formatted and written in blocks, so the whole text is never held. A
    float column whose values all share one bit pattern is formatted once,
    into the row template.
    """
    cols = [np.asarray(c) for c in columns]
    n_rows = len(cols[0])
    if any(len(c) != n_rows for c in cols):
        raise ValueError("CSV columns differ in length")
    fields, varying = [], []
    for c in cols:
        if c.dtype == np.float64 and n_rows and _one_bit_pattern(c):
            fields.append("%.17g" % c[0])
        else:
            fields.append("%d" if np.issubdtype(c.dtype, np.integer) else "%.17g")
            varying.append(c)
    row = ",".join(fields) + "\r\n"

    def blocks():
        yield "".join(f"# {key}={value}\r\n" for key, value in (meta or {}).items())
        yield ",".join(header) + "\r\n"
        for start in range(0, n_rows, _CSV_BLOCK_ROWS):
            if not varying:
                yield row * min(_CSV_BLOCK_ROWS, n_rows - start)
                continue
            block = (c[start:start + _CSV_BLOCK_ROWS].tolist() for c in varying)
            yield "".join(map(row.__mod__, zip(*block)))

    atomic_write(path, blocks())


def _one_bit_pattern(c):
    """Whether the float64 column ``c`` holds one bit pattern throughout
    (so -0.0 and 0.0, or two NaN payloads, count as different values)."""
    bits = c.view(np.uint64)
    return bool((bits == bits[0]).all())


def json_text(obj):
    """The JSON artifact text of ``obj`` (see the module docstring)."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=1)


def _jsonable(obj):
    """``obj`` as plain JSON values: dict keys as strings, tuples and arrays
    as lists, numpy scalars as Python numbers, non-finite floats as None."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = list(obj.tolist())   # a 0-d array's scalar raises TypeError
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, np.integer):
        return int(obj)
    return obj
