"""Deterministic CSV / JSON emission shared by the CLI commands.

A CSV float is written as its `repr`, byte for byte, though no writer calls
`repr`: each block of rows is formatted in numpy.  The shortest digits come
from Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020):
the double and its rounding interval's ends, times a 126-bit g ~ 10^-k and
rounded to odd, pick one of the two decimals a digit shorter around it, or
else the nearer of its two full-length neighbours (even on a tie).  The
products of 32-bit limbs stand in for 64 x 128-bit ones, as in Ryu (U.
Adams, "Ryu: fast float-to-string conversion", PLDI 2018).  The text then
takes `repr`'s notation: positional while -4 < decimal point <= 16,
`d.ddde+XX` beyond, `.0` on whole numbers, `-0.0`, `inf`, `-inf`, `nan`.
Cells, commas and labels fill a NUL-padded byte matrix whose NULs are then
deleted.  The tests hold the bytes to `repr`'s.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import shutil
import tempfile

import numpy as np

__all__ = ["RowBlocks", "csv_rows", "fmt", "temp_file", "write_part", "write_table"]

# CSV rows are formatted and written a block at a time, and a block's floats
# formatted at most this many at a time, so memory stays bounded
_BLOCK_ROWS = 2048

# characters that would split or quote a CSV field, and the matrix's padding
_CSV_SPECIAL = (",", '"', "\r", "\n", "\0")


def fmt(value):
    """Shortest round-trip decimal representation of a float."""
    return repr(float(value))


_M32 = 0xFFFFFFFF
_P10 = np.array([10 ** i for i in range(18)], np.uint64)


@functools.cache  # built on first use: a process that writes no CSV never pays
def _scales():
    """k and h by biased exponent, then by biased exponent + 2048 for powers
    of two, whose lower neighbour is nearer; and g(k)'s 32-bit limbs (low
    first) by k + 324."""
    limbs = []
    for k in range(-324, 293):  # g(k) in [2^125, 2^126), just above 10^-k 2^-r
        p = 10 ** abs(k)
        b = p.bit_length()
        g = (1 << 125 + b) // p if k > 0 else p << 126 - b if b <= 126 else p >> b - 126
        limbs.append((g + 1).to_bytes(16, "little"))
    g = np.frombuffer(b"".join(limbs), "<u4").reshape(-1, 4).T.astype(np.uint64)
    q = np.maximum(np.arange(2048), 1) - 1075
    # floor(q log10 2), floor(log10(3/4 2^q)) and floor(-k log2 10) by multiply-and-shift
    k = np.concatenate([q * 661971961083 >> 41, q * 661971961083 - 274743187321 >> 41])
    h = np.tile(q, 2) + (-k * 913124641741 >> 38) + 2
    return k, h.astype(np.uint64), g


def _rop(g, cp):
    """floor(g cp / 2^127), its last bit set if bits 64..126 of g cp are not all 0."""
    g0, g1, g2, g3 = g
    c0, c1 = cp & _M32, cp >> 32
    t = g1 * c0 + (g0 * c0 >> 32)
    u = (t & _M32) + g0 * c1
    t = g2 * c0 + (t >> 32) + (u >> 32)
    u = (t & _M32) + g1 * c1
    low = u & _M32
    t = g3 * c0 + (t >> 32) + (u >> 32)
    u = (t & _M32) + g2 * c1
    top = g3 * c1 + (t >> 32) + (u >> 32)
    return top << 1 | (u & _M32) >> 31 | ((u & 0x7FFFFFFF | low) != 0)


def _shortest(bits):
    """(digits, exponent) of the shortest decimals of positive finite doubles
    given as their uint64 bits: digits has no trailing zero."""
    t = bits & (1 << 52) - 1
    biased = (bits >> 52).astype(np.intp)
    c = np.where(biased > 0, t | 1 << 52, t)
    irregular = (t == 0) & (biased > 1)
    j = biased + irregular * 2048
    scale_k, scale_h, scale_g = _scales()
    k, h = np.take(scale_k, j), np.take(scale_h, j)
    g = [np.take(limb, k + 324) for limb in scale_g]
    # 4 v and 4 times the interval's ends, over 10^k and rounded to odd; an end
    # is inside when c is even (round half to even).  s and s + 1 bracket
    # v / 10^k, 10 sp and 10 sp + 10 a digit shorter; one of those at most is inside
    cb, odd = c << 2, c & 1
    vb = _rop(g, cb << h)
    s = vb >> 2
    sp = s // 10
    vbl = _rop(g, cb - 2 + irregular << h) + odd
    upin, uin = vbl <= sp * 40, vbl <= s << 2
    del vbl
    vbr = _rop(g, cb + 2 << h) - odd
    wpin, win = sp * 40 + 40 <= vbr, (s << 2) + 4 <= vbr
    del vbr
    mid = (s << 2) + 2
    below = np.where(uin == win, (vb < mid) | (vb == mid) & (s & 1 == 0), uin)
    shorter = upin != wpin
    d, e = np.where(shorter, sp + wpin, s + ~below), k + shorter
    for p in (8, 4, 2, 1):
        quotient = d // 10 ** p
        zeros = quotient * 10 ** p == d
        d = np.where(zeros, quotient, d)
        e += zeros * p
    return d, e


def _ascii8(x):
    """The 8 digits of x < 10^8 as ASCII bytes of one word, the first lowest."""
    hi = x // 10000
    y = hi | (x - hi * 10000) << 32
    q = y * 5243 >> 19 & 0x0000007F0000007F  # // 100 in each 32-bit lane
    y = q | (y - q * 100) << 16
    q = y * 103 >> 10 & 0x000F000F000F000F  # // 10 in each 16-bit lane
    return q | (y - q * 10) << 8 | 0x3030303030303030


def _words(rows):
    """24-byte rows as the (3, rows) words of their bytes 0-7, 8-15, 16-23."""
    return np.ascontiguousarray(np.asarray(rows, np.uint8).view("<u8").T, np.uint64)


@functools.cache
def _layout():
    """Word tables of a cell: its bytes 0..n-1; "." at byte n; "0" at bytes
    1..n; the exponent of x + 324 at bytes 19-23; "inf" and "nan"."""
    byte, n = np.arange(24), np.arange(25)[:, None]
    suffix = np.array([b"e%+03d" % x for x in range(-324, 309)], "S5").view(np.uint8)
    return (_words((byte < n) * 255), _words((byte == n) * ord(".")),
            _words(((byte > 0) & (byte <= n[:5])) * ord("0"))[0],
            _words(np.pad(suffix.reshape(-1, 5), ((0, 0), (19, 0))))[2],
            _words([list(b"\0inf" + bytes(20)), list(b"\0nan" + bytes(20))])[0])


def _cells(values):
    """The repr of each float64 of `values` as a (n, 24) uint8 array, NUL
    where a cell has no byte, and the end of each cell's bytes.  Byte 0 is
    the sign, the digits start at byte 1 (after "0." and zeros below 1), and
    an exponent takes bytes 19-23."""
    low_bytes, point_byte, zero_bytes, exponents, inf_nan = _layout()
    bits = values.view(np.uint64)
    magnitude = bits & (1 << 63) - 1
    finite = magnitude < 0x7FF0000000000000
    regular = finite & (magnitude != 0)
    d, e = _shortest(np.where(regular, magnitude, 0x3FF0000000000000))
    d *= regular  # 0.0, and a placeholder for inf and nan
    length = np.searchsorted(_P10[1:], d, side="right") + 1
    point = np.where(regular, length + e, 1)  # the decimal point follows this many digits
    positional = (point > -4) & (point <= 16)
    zeros = np.where(positional & (point <= 0), 1 - point, 0)  # "0" and those after the point
    d *= np.take(_P10, 17 - length)  # 17 digits, zero-padded
    first = d // 10 ** 16
    hi = (d - first * 10 ** 16) // 10 ** 8
    hi, lo = _ascii8(hi), _ascii8(d - first * 10 ** 16 - hi * 10 ** 8)
    x = first | 0x30 | hi << 8, hi >> 56 | lo << 8, lo >> 56
    at = np.where(positional, np.maximum(point, 1), 1) + 1  # the point's byte
    end = np.where(positional, np.maximum(length + zeros, at) + 2, length + (length > 1) + 1)
    shift = (8 + 8 * zeros).astype(np.uint64)
    digits = (x[0] << shift | np.take(zero_bytes, zeros), x[1] << shift | x[0] >> 64 - shift,
              x[2] << shift | x[1] >> 64 - shift)
    words = np.empty((len(values), 3), np.uint64)
    for i, (low, dot) in enumerate(zip(low_bytes, point_byte)):  # a point inserted at `at`
        moved = digits[i] << 8 | (digits[i - 1] >> 56 if i else 0)
        words[:, i] = (digits[i] & np.take(low, at) | moved & ~np.take(low, at + 1)
                       | np.take(dot, at)) & np.take(low, end)
    words[:, 0] |= (bits >> 63) * 45  # "-"
    words[:, 2] |= np.take(exponents, point + 323) * ~positional
    end[~positional] = 24
    special = np.flatnonzero(~finite)
    nan = magnitude[special] > 0x7FF0000000000000
    words[special] = 0
    words[special, 0] = np.take(inf_nan, nan.astype(np.intp)) | (bits[special] >> 63) * 45 * ~nan
    end[special] = 4
    return words.astype("<u8", copy=False).view(np.uint8), end


def _byte_matrix(values, labels):
    """A (rows, columns) float block's CSV bytes, with a last column of
    `labels` if given, as the rows of a NUL-padded byte matrix in a
    bytearray.  A column's distinct floats, told apart by bit pattern so
    that -0.0 keeps its sign, are formatted once each."""
    rows, parts = len(values), []
    for column in values.T:
        bits = column.view(np.int64)
        unique = np.sort(bits)
        unique = unique[np.concatenate([[True], unique[1:] != unique[:-1]])]
        if len(unique) == rows:
            parts.append((column, None))
        else:
            parts.append((unique.view(np.float64), np.searchsorted(unique, bits)))
    floats = np.concatenate([part for part, _ in parts] or [np.empty(0)])
    cells, ends = np.empty((len(floats), 24), np.uint8), np.empty(len(floats), np.intp)
    for lo in range(0, len(floats), _BLOCK_ROWS):
        hi = lo + _BLOCK_ROWS
        cells[lo:hi], ends[lo:hi] = _cells(floats[lo:hi])
    fields, lo = [], 0
    for part, inverse in parts:
        hi = lo + len(part)
        text = cells[lo:hi, 0 if cells[lo:hi, 0].any() else 1:ends[lo:hi].max()]
        fields.append((text, inverse))
        lo = hi
    if labels is not None:
        index = {name: i for i, name in enumerate(dict.fromkeys(labels))}
        text = np.array([name.encode() for name in index], bytes)
        fields.append((text.view(np.uint8).reshape(len(index), -1),
                       np.fromiter(map(index.__getitem__, labels), np.intp, rows)))
    width = max(sum(text.shape[1] + 1 for text, _ in fields), 1)  # a row of no fields is "\n"
    buffer = bytearray(rows * width)
    matrix = np.frombuffer(buffer, np.uint8).reshape(rows, width)
    at = 0
    for text, inverse in fields:
        matrix[:, at:at + text.shape[1]] = text if inverse is None else np.take(text, inverse, 0)
        at += text.shape[1] + 1
        matrix[:, at - 1] = ord(",")
    matrix[:, -1] = ord("\n")
    return buffer


def csv_rows(values, labels=None):
    """The CSV bytes of a (rows, columns) float table's rows, no header, a block at a time."""
    for start in range(0, len(values), _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        buffer = _byte_matrix(values[start:stop], None if labels is None else labels[start:stop])
        text = buffer.translate(None, b"\0")
        del buffer  # before the copy, so the block is held at most twice
        yield bytes(text)


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
    """The CSV bytes of a `RowBlocks` table's rows, no header, a block at a time."""
    for start, block in _blocks(table):
        yield from csv_rows(block, None if labels is None else labels[start:start + len(block)])


def _json_text(header, table, labels):
    """The JSON document of a `RowBlocks` table, as UTF-8 bytes in a list."""
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
    return [(json.dumps({"columns": list(header), "rows": rows}, indent=1,
                        allow_nan=False) + "\n").encode()]


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
            raise ValueError(f"CSV field {field!r} contains a comma, quote, line break or NUL")
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
    with os.fdopen(fd, "wb") as fh:
        fh.writelines(_csv_text(table))


def write_table(path, header, values, fmt_name="csv", labels=None, parts=()):
    """Write a (rows, columns) float table atomically (temp file + rename).

    `values` is a 2-D array or a `RowBlocks`, whose blocks CSV writes as
    they come; JSON is one document, so it gathers them first.  `labels`,
    if given, is one string per row for a last column.  JSON writes a NaN
    or infinite value as null, so the file is strict JSON.  A table that
    cannot be written faithfully (header and column counts differ, values
    not 2-D, a CSV field holding a comma, quote, line break or NUL) raises
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
        chunks = itertools.chain([(",".join(header) + "\n").encode()], _csv_text(table, labels))
    else:
        chunks = _json_text(header, table, labels)
    fd, tmp = temp_file(path)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
            for part in parts:
                if fmt_name != "csv":
                    raise ValueError("a JSON table is one document: it takes no parts")
                with open(part, "rb") as rows:
                    shutil.copyfileobj(rows, fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
