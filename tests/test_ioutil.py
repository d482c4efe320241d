"""CSV cells against `repr`, the oracle the writer must equal byte for byte."""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcurv import get_model, manifold_sample
from flowcurv.ioutil import csv_rows
from flowcurv.manifold import grid_states

# tracemalloc peak of formatting the block of the memory test below by the
# writer this one replaced, which joined each row's `repr` strings (Python
# 3.11, numpy 2.4)
ROW_WRITER_PEAK = 949_860


def assert_repr(values, chunk=1 << 16):
    """Every cell of a one-column table of `values` is `repr(float(v))`."""
    values = np.asarray(values, dtype=float).ravel()
    for lo in range(0, len(values), chunk):
        part = values[lo:lo + chunk]
        got = b"".join(csv_rows(part[:, None]))
        want = ("\n".join(map(repr, part.tolist())) + "\n").encode()
        if got != want:
            rows = zip(part.tolist(), got.split(b"\n"), want.split(b"\n"))
            bad = next((v, g) for v, g, w in rows if g != w)
            raise AssertionError("%r written as %r" % bad)


def neighbours(values):
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf
        return np.concatenate([values, np.nextafter(values, -np.inf),
                               np.nextafter(values, np.inf)])


def test_random_bit_patterns():
    # NaN payloads, subnormals and infinities included.  `repr` of a random
    # double takes about 2.5 us (2-vCPU Xeon, Python 3.11), so 10^6 of them
    # would spend 2.5 s in the oracle alone
    bits = np.random.default_rng(20200).integers(0, 2**64, 3 * 10**5, dtype=np.uint64)
    assert_repr(bits.view(np.float64))


def test_powers_of_two_and_ten():
    # a power of two's lower neighbour is nearer than its upper one
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert_repr(neighbours(np.concatenate([powers, -powers])))
    assert_repr(neighbours([float(f"1e{e}") for e in range(-323, 309)]))


def test_notation_boundaries_and_short_decimals():
    assert_repr(neighbours([1e-05, 9.999999999999999e-05, 0.0001, 1e16, 9999999999999998.0,
                            1.2345678901234567e16, 5e-324, 1.7976931348623157e308]))
    assert_repr(np.arange(2.0**53 - 3000, 2.0**53 + 3000))
    rng = np.random.default_rng(4)
    mantissas, exponents = rng.integers(1, 10**4, 2 * 10**5), rng.integers(-327, 305, 2 * 10**5)
    assert_repr([float(f"{m}e{e}") for m, e in zip(mantissas.tolist(), exponents.tolist())])
    assert_repr(np.arange(-10**4, 10**4) / 100)


def test_zeros_infinities_and_nans():
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0xFFF00000DEADBEEF], dtype=np.uint64).view(np.float64)
    assert_repr(np.concatenate([[0.0, -0.0, np.inf, -np.inf], nans]))
    row = np.array([[-0.0, np.inf, -np.inf, -np.nan]])
    assert b"".join(csv_rows(row)) == b"-0.0,inf,-inf,nan\n"


def test_a_table_of_no_float_columns():
    assert b"".join(csv_rows(np.empty((3, 0)), ["a", "b/c", ""])) == b"a\nb/c\n\n"
    assert b"".join(csv_rows(np.empty((3, 0)))) == b"\n" * 3


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_floats(values):
    assert_repr(values)


def test_a_phi_scan_block_takes_no_more_memory_than_joined_reprs():
    # the benchmark's first 2,048-node chunk: x1, x2 of a 300 x 300 grid,
    # x3 = x4 = x5 = 0, then phi, lie and the cofactor residual
    model = get_model("chua5-pwl")
    x = grid_states(5, {0: (-4.0, 4.0, 300), 1: (-1.0, 1.0, 300)}, {}, 0, 2048)[0]
    sample = manifold_sample(model, x)
    block = np.vstack([x, sample.phi, sample.lie, sample.cofactor_residual]).T
    list(csv_rows(block))
    tracemalloc.start()
    try:
        text = list(csv_rows(block))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, text)) == 232_367
    assert peak <= ROW_WRITER_PEAK
