"""Atomic artifact writes and the shared CSV and JSON formats.

A CSV artifact is optional ``# key=value`` metadata lines, a header row,
then one row per table entry: integer columns as ``%d``, all other columns
as ``%.17g`` (round-trip exact), every line ending in ``\\r\\n``.

A JSON artifact is ``json.dumps(doc, sort_keys=True, indent=1)`` of the
document with dict keys as strings, tuples and arrays as lists, numpy
scalars as Python numbers and non-finite floats as ``null``.
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


def json_text(obj, level=0):
    """The JSON artifact text of ``obj`` (see the module docstring), as if
    nested ``level`` deep.

    Float arrays skip the per-element encoder: one ``float.__repr__`` pass
    over the flat values (what ``json`` writes for a float), then the
    nesting joined from the innermost axis outwards.
    """
    if isinstance(obj, dict):
        items = {str(k): v for k, v in obj.items()}
        return _nested([f"{json.dumps(k)}: {json_text(items[k], level + 1)}"
                        for k in sorted(items)], level, "{}")
    if isinstance(obj, np.ndarray):
        if obj.ndim == 0:
            raise TypeError("a 0-d array is not a JSON array")
        if obj.dtype.kind == "f":
            return _float_array_text(obj, level)
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return _nested([json_text(v, level + 1) for v in obj], level)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return repr(v) if math.isfinite(v) else "null"
    if isinstance(obj, np.integer):
        return repr(int(obj))
    return json.dumps(obj)


def _nested(items, level, brackets="[]"):
    """Encoded ``items`` as one container opened at indent ``level``."""
    if not items:
        return brackets
    sep = "\n" + " " * (level + 1)
    return (brackets[0] + sep + ("," + sep).join(items) + "\n" + " " * level
            + brackets[1])


def _float_array_text(a, level):
    flat = np.ravel(a).astype(float)
    items = list(map(float.__repr__, flat.tolist()))
    for i in np.flatnonzero(~np.isfinite(flat)).tolist():
        items[i] = "null"
    for axis in range(a.ndim - 1, -1, -1):
        size = a.shape[axis]
        count = math.prod(a.shape[:axis])
        items = [_nested(items[g * size:(g + 1) * size], level + axis)
                 for g in range(count)]
    return items[0]
