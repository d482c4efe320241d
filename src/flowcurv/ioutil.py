"""Deterministic CSV / JSON emission shared by the CLI commands."""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import tempfile

import numpy as np

__all__ = ["csv_rows", "fmt", "temp_file", "write_table"]

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


def csv_rows(values, labels=None):
    """The CSV text of a (rows, columns) float table's rows, no header, a block at a time."""
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


def temp_file(path):
    """(fd, name) of a new `.flowcurv-` temp file beside `path`; an OSError names `path`."""
    try:
        return tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".flowcurv-")
    except OSError as err:  # name the output, not the temp file
        raise OSError(err.errno, err.strerror, os.fspath(path)) from err


def write_table(path, header, values, fmt_name="csv", labels=None, parts=()):
    """Write a (rows, columns) float table atomically (temp file + rename).

    `labels`, if given, is one string per row for a last column.  JSON
    writes a NaN or infinite value as null, so the file is strict JSON. A table
    that cannot be written faithfully (header and column counts differ, values
    not 2-D, a CSV field holding a comma, quote or line break) raises
    `ValueError` before any file is created.  `parts` (CSV only) names files
    of further rows as `csv_rows` writes them; each is appended in turn, after
    the table's own rows, without being read into memory, and is taken from
    the iterable only once those rows are written.
    """
    values = np.asarray(values, dtype=float)
    _check_table(header, values, fmt_name, labels)
    if fmt_name == "csv":
        chunks = itertools.chain([",".join(header) + "\n"], csv_rows(values, labels))
    elif fmt_name == "json":
        rows = values.tolist()
        # strict JSON has no NaN or Infinity: such a number is written as null
        for i in np.flatnonzero(~np.isfinite(values).all(axis=1)).tolist():
            rows[i] = [v if math.isfinite(v) else None for v in rows[i]]
        if labels is not None:
            for row, label in zip(rows, labels):
                row.append(label)
        chunks = [json.dumps({"columns": list(header), "rows": rows}, indent=1,
                             allow_nan=False) + "\n"]
    else:
        raise ValueError(f"unknown output format {fmt_name!r}")
    fd, tmp = temp_file(path)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
            for part in parts:
                fh.flush()
                with open(part, "rb") as rows:
                    shutil.copyfileobj(rows, fh.buffer)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
