"""Deterministic CSV / JSON emission shared by the CLI commands."""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import tempfile

import numpy as np

__all__ = ["RowBlocks", "csv_rows", "fmt", "temp_file", "write_part", "write_table"]

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


class RowBlocks:
    """A (rows, columns) float table given as its consecutive row blocks.

    `blocks` is an iterable of 2-D arrays of `columns` columns each, `rows`
    rows in all, which the writer reads once and in order; so a block made
    on demand (a generator) is made only once the rows before it are
    written, and the table is never whole in memory.  `len()` is `rows`.
    """

    def __init__(self, rows, columns, blocks):
        self.rows, self.columns, self.blocks = rows, columns, blocks

    def __len__(self):
        return self.rows


def _as_blocks(values):
    """`values` as `RowBlocks`: itself, or a (rows, columns) array as one block."""
    if isinstance(values, RowBlocks):
        return values
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"values must be a (rows, columns) table, got shape {values.shape}")
    return RowBlocks(len(values), values.shape[1], [values])


def _blocks(table):
    """(first row, float block) of each block of `table`, checked against its shape."""
    start = 0
    for block in table.blocks:
        block = np.asarray(block, dtype=float)
        if block.ndim != 2 or block.shape[1] != table.columns:
            raise ValueError(f"a block of shape {block.shape} in a table of {table.columns} columns")
        yield start, block
        start += len(block)
    if start != table.rows:
        raise ValueError(f"{start} rows in the blocks of a table of {table.rows} rows")


def _csv_text(table, labels=None):
    """The CSV text of a `RowBlocks` table's rows, no header, a block at a time."""
    for start, block in _blocks(table):
        yield from csv_rows(block, None if labels is None else labels[start:start + len(block)])


def _json_text(header, table, labels):
    """The JSON document of a `RowBlocks` table, as one string in a list."""
    rows = []
    for _, block in _blocks(table):
        block_rows = block.tolist()
        # strict JSON has no NaN or Infinity: such a number is written as null
        for i in np.flatnonzero(~np.isfinite(block).all(axis=1)).tolist():
            block_rows[i] = [v if math.isfinite(v) else None for v in block_rows[i]]
        rows += block_rows
    if labels is not None:
        for row, label in zip(rows, labels):
            row.append(label)
    return [json.dumps({"columns": list(header), "rows": rows}, indent=1,
                       allow_nan=False) + "\n"]


def _check_table(header, table, fmt_name, labels):
    n_columns = table.columns + (labels is not None)
    if len(header) != n_columns:
        raise ValueError(f"{len(header)} header names for {n_columns} columns")
    if labels is not None and len(labels) != len(table):
        raise ValueError(f"{len(labels)} labels for {len(table)} rows")
    if fmt_name == "csv":
        fields = [*header, *(() if labels is None else labels)]
        text = "".join(fields)  # a few scans of one string, not a few per field
        if any(char in text for char in _CSV_SPECIAL):
            field = next(f for f in fields if any(char in f for char in _CSV_SPECIAL))
            raise ValueError(f"CSV field {field!r} contains a comma, quote or line break")
    elif fmt_name != "json":
        raise ValueError(f"unknown output format {fmt_name!r}")


def temp_file(path):
    """(fd, name) of a new `.flowcurv-` temp file beside `path`; an OSError names `path`."""
    try:
        return tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".flowcurv-")
    except OSError as err:  # name the output, not the temp file
        raise OSError(err.errno, err.strerror, os.fspath(path)) from err


def write_part(fd, table):
    """Write the CSV rows of `table` (a `RowBlocks`), no header, to the open
    file descriptor `fd` and close it: a part file for `write_table`."""
    with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_csv_text(table))


def write_table(path, header, values, fmt_name="csv", labels=None, parts=()):
    """Write a (rows, columns) float table atomically (temp file + rename).

    `values` is a 2-D array or a `RowBlocks`, whose blocks CSV writes as
    they come; JSON is one document, so it gathers them first.  `labels`,
    if given, is one string per row for a last column.  JSON writes a NaN
    or infinite value as null, so the file is strict JSON.  A table that
    cannot be written faithfully (header and column counts differ, values
    not 2-D, a CSV field holding a comma, quote or line break) raises
    `ValueError` before any file is created; blocks that do not match the
    table's shape raise it while it is written, and leave no file.  `parts`
    (CSV only) names files of further rows as `write_part` writes them;
    each is appended in turn, after the table's own rows, without being
    read into memory, and is taken from the iterable only once those rows
    are written.  A part that arrives for JSON raises `ValueError` and
    leaves no file.
    """
    table = _as_blocks(values)
    _check_table(header, table, fmt_name, labels)
    if fmt_name == "csv":
        chunks = itertools.chain([",".join(header) + "\n"], _csv_text(table, labels))
    else:
        chunks = _json_text(header, table, labels)
    fd, tmp = temp_file(path)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
            for part in parts:
                if fmt_name != "csv":
                    raise ValueError("a JSON table is one document: it takes no parts")
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
