"""Deterministic CSV / JSON emission shared by the CLI commands."""

from __future__ import annotations

import itertools
import json
import os
import tempfile

__all__ = ["fmt", "write_table"]


def fmt(value):
    """Shortest round-trip decimal representation of a float."""
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    return repr(float(value))


def write_table(path, header, rows, fmt_name="csv"):
    """Write a table atomically (temp file + rename; no partial outputs)."""
    if fmt_name == "csv":
        # streamed line by line: the whole text is never held in memory
        lines = itertools.chain([",".join(header) + "\n"],
                                (",".join(fmt(v) for v in row) + "\n" for row in rows))
    elif fmt_name == "json":
        payload = {"columns": list(header),
                   "rows": [[v if isinstance(v, str) else float(v) for v in row]
                            for row in rows]}
        lines = [json.dumps(payload, indent=1) + "\n"]
    else:
        raise ValueError(f"unknown output format {fmt_name!r}")
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".flowcurv-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
