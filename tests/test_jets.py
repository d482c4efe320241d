"""The derivative-stack recurrence on Taylor coefficients (jets)."""

import tracemalloc

import numpy as np
import pytest

from flowcurv import derivative_stack, expr, get_model, integrate, load_model, phi
from flowcurv.jets import MAX_ORDER

from conftest import ROTATION, assert_same_bits, reversed_model


def test_planar_rotation_stack():
    # circular motion: successive derivatives rotate by 90 degrees
    model = load_model(ROTATION)
    st = derivative_stack(model, [1.0, 0.0], 3)
    np.testing.assert_array_equal(st.derivs[0], [0.0, 1.0])
    np.testing.assert_array_equal(st.derivs[1], [-1.0, 0.0])
    np.testing.assert_array_equal(st.derivs[2], [0.0, -1.0])


def test_jet_product_expansion():
    # x2 = 2 + t, so x1' = (2 + t)^2 = 4 + 4t + t^2: d1..d4 of x1 are 4, 4, 2, 0
    for square in ("x2*x2", "x2^2"):
        model = load_model({"name": "square", "dim": 2, "params": {}, "rhs": [square, "1"]})
        st = derivative_stack(model, [0.0, 2.0], 4)
        np.testing.assert_array_equal(st.derivs[:, 0], [4.0, 4.0, 2.0, 0.0])


def test_constant_jets_give_rhs_in_order_zero(gear):
    # order-0 Taylor coefficients are the state, so d_1 is the rhs value
    st = derivative_stack(gear, [1.0, 0.0, 1.0, 0.0, 0.0], 4)
    np.testing.assert_array_equal(st.derivs[0], [0.0, 1.0, 0.0, 800.0, 1200.0])


def test_jet_eval_order0_matches_scalar_rhs():
    model = get_model("chua5-cubic")
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = rng.uniform(-2, 2, 5)
        np.testing.assert_array_equal(derivative_stack(model, x, 3).derivs[0], model.velocity(x))


def test_stack_order0_matches_velocity(models_by_name):
    # d_1 is the rhs itself, bit for bit and zero signs included, on every
    # model, batched and single-point (acceptance criterion 10 rests on it)
    rng = np.random.default_rng(5)
    for model in [*models_by_name.values(), reversed_model(models_by_name["chua3-pwl"])]:
        x = rng.uniform(-2.5, 2.5, (model.dim, 50))
        x[rng.random(x.shape) < 0.2] = -0.0
        for got, want in [(derivative_stack(model, x, 1).derivs[0], model.velocity(x))] + [
                (derivative_stack(model, x[:, k], 1).derivs[0], model.velocity(x[:, k]))
                for k in range(10)]:
            assert_same_bits(got, want)


def test_constant_rhs_component():
    # a constant component (a literal, or x1^0) evaluates to one number, not
    # a series; every stack built on it works
    for one in ("1", "x1^0"):
        model = load_model({"name": "drift", "dim": 2, "params": {}, "rhs": [one, "x1"]})
        x = np.array([0.5, -2.0])
        st = derivative_stack(model, x, 3)
        np.testing.assert_array_equal(st.derivs[0], [1.0, 0.5])
        np.testing.assert_array_equal(st.derivs[1], [0.0, 1.0])
        np.testing.assert_array_equal(st.derivs[2], [0.0, 0.0])
        assert phi(model, x) == 1.0
        batch = derivative_stack(model, np.array([[0.5, 3.0], [-2.0, 1.0]]), 2)
        np.testing.assert_array_equal(batch.derivs[:, :, 1], [[1.0, 3.0], [0.0, 1.0]])


def test_order_cap_and_bad_input(chua3):
    with pytest.raises(ValueError, match="cap"):
        derivative_stack(chua3, [1.5, 0.0, -1.5], MAX_ORDER + 1)
    with pytest.raises(ValueError):
        derivative_stack(chua3, [np.nan, 0.0, 0.0], 3)
    with pytest.raises(ValueError):
        derivative_stack(chua3, [1.0, 0.0, 0.0], 0)


def test_stack_fills_the_given_array(chua5):
    # every coefficient is written before it is read, so a buffer of NaN, or
    # a partial-width view of a wider one, gives the stack's bits in place
    x = np.random.default_rng(3).uniform(-3.0, 3.0, (5, 40)).astype(np.longdouble)
    buffer = np.full((7, 5, 64), np.nan, dtype=np.longdouble)
    for state, out in ((x, buffer[..., :40]), (x[:, 0], buffer[:, :, 50])):
        stack = derivative_stack(chua5, state, 6, out=out)
        assert np.shares_memory(stack.derivs, out[1:])
        assert_same_bits(stack.derivs, derivative_stack(chua5, state, 6).derivs)
        assert_same_bits(out[0], state)
    assert np.isnan(buffer[..., 40:50]).all() and np.isnan(buffer[..., 51:]).all()


@pytest.mark.parametrize("shape, dtype", [((7, 5, 39), np.longdouble), ((6, 5, 40), np.longdouble),
                                          ((7, 5, 40), np.float64), ((7, 40, 5), np.longdouble)])
def test_stack_rejects_an_out_of_another_shape_or_dtype(chua5, shape, dtype):
    x = np.zeros((5, 40), dtype=np.longdouble)
    out = np.zeros(shape, dtype=dtype)
    with pytest.raises(ValueError, match="out must have shape"):
        derivative_stack(chua5, x, 6, out=out)
    assert not out.any()


def test_linear_region_identity_chua3(chua3):
    # inside one PWL region the stack obeys d_{k+1} = J d_k
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.uniform([1.05, -2, -2], [2.5, 2, 2])
        if chua3.classify(x) != "pos":
            continue
        st = derivative_stack(chua3, x, 4)
        J = chua3.jacobian(x)
        for k in range(3):
            resid = np.linalg.norm(st.derivs[k + 1] - J @ st.derivs[k])
            assert resid <= 1e-12 * np.linalg.norm(st.derivs[k + 1])


def test_prefix_stability(chua4):
    x = np.array([1.4, 0.2, -0.3, 0.8])
    full = derivative_stack(chua4, x, 5)
    short = derivative_stack(chua4, x, 4)
    np.testing.assert_array_equal(full.derivs[:4], short.derivs)


def test_second_derivative_against_directional_fd():
    # d2 = J d1, probed as a central difference of the rhs along d1
    model = get_model("chua4-cubic")
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(20):
        x = rng.uniform(-2, 2, 4)
        st = derivative_stack(model, x, 2)
        d1 = st.derivs[0]
        fd = (model.velocity(x + h * d1) - model.velocity(x - h * d1)) / (2 * h)
        err = np.linalg.norm(st.derivs[1] - fd)
        assert err <= 1e-4 * max(1.0, np.linalg.norm(st.derivs[1]))


def test_taylor_polynomial_convergence_order(chua3):
    # degree-m polynomial from the stack vs an accurately integrated state:
    # halving t must shrink the defect by at least 2^m
    x0 = np.array([1.6, 0.3, -1.2])
    m = 3
    st = derivative_stack(chua3, x0, m)

    def taylor(t):
        out = x0.copy()
        fact = 1.0
        for k in range(1, m + 1):
            fact *= k
            out = out + st.derivs[k - 1] * t ** k / fact
        return out

    errs = []
    for t in (1e-3, 5e-4):
        ref = integrate(chua3, x0, t, rel_tol=1e-13, abs_tol=1e-16).states[-1]
        errs.append(np.linalg.norm(taylor(t) - ref))
    assert errs[0] / errs[1] >= 2 ** m


def test_region_frozen_for_whole_stack(chua3):
    # stack pinned to a branch uses that branch even where classification differs
    x = np.array([0.5, 0.0, 0.0])
    pinned = derivative_stack(chua3, x, 2, region="pos")
    free = derivative_stack(chua3, x, 2)
    assert pinned.region == "pos"
    assert free.region == "mid"
    assert not np.array_equal(pinned.derivs[0], free.derivs[0])


def test_batch_matches_scalar(chua5):
    rng = np.random.default_rng(3)
    X = rng.uniform(-2, 2, size=(5, 17))
    batch = derivative_stack(chua5, X, 6)
    for k in range(17):
        single = derivative_stack(chua5, X[:, k], 6)
        np.testing.assert_array_equal(batch.derivs[:, :, k], single.derivs)


def test_memo_release_keeps_only_convolved_series():
    # a product of two series reads their whole series; every other node's
    # coefficient j reads its children's coefficient j alone, so `release`
    # drops it once the order is done, and a constant keeps its value
    tree, _ = expr.parse_expression("(x1 + 2) * pwl(x2; a, b) - 3*x1", {"x1": 0, "x2": 1},
                                    {"a": -1.1, "b": -0.7})
    x = np.zeros((4, 2, 5))
    x[:2] = np.random.default_rng(2).standard_normal((2, 2, 5))
    memo = expr.TaylorMemo(x)
    for j in range(2):
        memo.series(tree, j)
        memo.release()
    factors = set(tree.left.children)
    assert memo.whole == factors
    for node, series in memo.items():
        kept = node in factors or node.constant
        assert (series[-1] is not None) == kept, node


def test_batched_stack_memo_holds_one_order(chua5):
    # on chua5-pwl, whose rhs has no product of two series, a 2,048-point
    # longdouble stack of order 6 peaks near 1.6 MB under tracemalloc against
    # its 1.15 MB result; a memo that keeps every series peaks near 3.8 MB
    x = np.random.default_rng(4).uniform(-2, 2, (5, 2048)).astype(np.longdouble)
    derivative_stack(chua5, x, 6)
    tracemalloc.start()
    try:
        derivs = derivative_stack(chua5, x, 6).derivs
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * derivs.base.nbytes, (peak, derivs.base.nbytes)
