"""Deterministic CSV / JSON emission shared by the CLI commands."""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

__all__ = ["fmt", "write_table"]

# CSV rows are formatted and written a block at a time, so the text held in
# memory is bounded whatever the table size
_BLOCK_ROWS = 4096

# characters that would split or quote a CSV field
_CSV_SPECIAL = (",", '"', "\r", "\n")


def fmt(value):
    """Shortest round-trip decimal representation of a float."""
    return repr(float(value))


def _column_text(column):
    """The `repr` of each float of one block column, formatting each distinct one once.

    Values are told apart by bit pattern, so -0.0 and 0.0 keep their own text.
    A column of all-distinct values (trajectory times and states, phi) is formatted lazily,
    so its strings are not all held at once.
    """
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    if len(bits) == len(column):
        return map(repr, column.tolist())
    text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return text[inverse].tolist()


def _csv_blocks(header, values, labels):
    yield ",".join(header) + "\n"
    for start in range(0, len(values), _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        columns = [_column_text(column) for column in values[start:stop].T]
        if labels is not None:
            columns.append(labels[start:stop])
        yield "\n".join(map(",".join, zip(*columns))) + "\n"


def _check_table(header, values, fmt_name, labels):
    if values.ndim != 2:
        raise ValueError(f"values must be a (rows, columns) table, got shape {values.shape}")
    n_columns = values.shape[1] + (labels is not None)
    if len(header) != n_columns:
        raise ValueError(f"{len(header)} header names for {n_columns} columns")
    if labels is not None and len(labels) != len(values):
        raise ValueError(f"{len(labels)} labels for {len(values)} rows")
    if fmt_name == "csv":
        fields = [*header, *(() if labels is None else labels)]
        text = "".join(fields)  # a few scans of one string, not a few per field
        if any(char in text for char in _CSV_SPECIAL):
            field = next(f for f in fields if any(char in f for char in _CSV_SPECIAL))
            raise ValueError(f"CSV field {field!r} contains a comma, quote or line break")


def write_table(path, header, values, fmt_name="csv", labels=None):
    """Write a (rows, columns) float table atomically (temp file + rename).

    `labels`, if given, is one string per row for a last column. A table
    that cannot be written faithfully (header and column counts differ, values
    not 2-D, a CSV field holding a comma, quote or line break) raises
    `ValueError` before any file is created.
    """
    values = np.asarray(values, dtype=float)
    _check_table(header, values, fmt_name, labels)
    if fmt_name == "csv":
        chunks = _csv_blocks(header, values, labels)
    elif fmt_name == "json":
        rows = values.tolist()
        if labels is not None:
            for row, label in zip(rows, labels):
                row.append(label)
        chunks = [json.dumps({"columns": list(header), "rows": rows}, indent=1) + "\n"]
    else:
        raise ValueError(f"unknown output format {fmt_name!r}")
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".flowcurv-")
    except OSError as err:  # name the output, not the temp file
        raise OSError(err.errno, err.strerror, os.fspath(path)) from err
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
