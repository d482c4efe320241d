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


def fmt(value):
    """Shortest round-trip decimal representation of a float."""
    return repr(float(value))


def _csv_blocks(header, values, labels):
    yield ",".join(header) + "\n"
    for start in range(0, len(values), _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        columns = [map(repr, column) for column in values[start:stop].T.tolist()]
        if labels is not None:
            columns.append(labels[start:stop])
        yield "\n".join(map(",".join, zip(*columns))) + "\n"


def write_table(path, header, values, fmt_name="csv", labels=None):
    """Write a (rows, columns) float table atomically (temp file + rename).

    `labels`, if given, is one string per row for a last column.
    """
    values = np.asarray(values, dtype=float)
    if labels is not None and len(labels) != len(values):
        raise ValueError(f"{len(labels)} labels for {len(values)} rows")
    if fmt_name == "csv":
        chunks = _csv_blocks(header, values, labels)
    elif fmt_name == "json":
        rows = values.tolist()
        for row, label in zip(rows, labels or ()):
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
