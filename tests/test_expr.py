"""Expression grammar: parsing, evaluation, differentiation."""

import numpy as np
import pytest

from flowcurv.expr import ExprError, TaylorMemo, parse_expression

VARS3 = {"x1": 0, "x2": 1, "x3": 2}


def parse(text, params=None):
    node, _ = parse_expression(text, VARS3, params or {})
    return node


def test_basic_arithmetic():
    node = parse("x1 + 2*x2 - x3^2")
    assert node.eval([1.0, 2.0, 3.0]) == 1 + 4 - 9


def test_params_fold_to_constants():
    node = parse("a*x1 + b", {"a": 2.5, "b": -1.0})
    assert node.eval([2.0, 0.0, 0.0]) == 4.0


def test_power_variants():
    assert parse("x1**3").eval([2.0, 0, 0]) == 8.0
    assert parse("x1^3").eval([2.0, 0, 0]) == 8.0
    with pytest.raises(ExprError, match="integer"):
        parse("x1^1.5")


def test_unicode_operators():
    node = parse("x1 − x2 · x3")  # minus sign, middle dot
    assert node.eval([5.0, 2.0, 3.0]) == -1.0


def test_pwl_branches_and_tie_break():
    node = parse("pwl(x1; a, b)", {"a": -8 / 7, "b": -5 / 7})
    a, b = -8 / 7, -5 / 7
    assert node.eval([0.0, 0, 0]) == 0.0
    assert node.eval([1.5, 0, 0]) == pytest.approx(-1.5, abs=1e-15)
    assert node.eval([-1.5, 0, 0]) == pytest.approx(1.5, abs=1e-15)
    assert node.eval([-1.5, 0, 0]) == -node.eval([1.5, 0, 0])
    # |x1| = 1: middle branch by convention; the value is branch-independent
    assert node.eval([1.0, 0, 0]) == a
    # middle-branch Jacobian at the breakpoint
    slope = node.diff(0)
    assert slope.eval([1.0, 0, 0]) == a
    assert slope.eval([1.0 + 1e-12, 0, 0]) == b


def test_pwl_region_pinning():
    node = parse("pwl(x1; a, b)", {"a": -0.42, "b": 1.2})
    x = [0.5, 0, 0]
    assert node.eval(x) == -0.42 * 0.5
    assert node.eval(x, region="pos") == 1.2 * (0.5 - 1.0) + (-0.42)


def test_diff_matches_finite_differences():
    params = {"a": -1.246, "b": -0.6724, "c": 0.37}
    exprs = ["a*(x2 - x1 - pwl(x1; a, b))", "x1*x2*x3 - c*x2^3", "x3*(x1 - 2)^2"]
    rng = np.random.default_rng(0)
    h = 1e-6
    for text in exprs:
        node = parse(text, params)
        for _ in range(20):
            x = rng.uniform(1.2, 2.0, 3)  # stay inside one pwl region
            for i in range(3):
                xp = x.copy(); xp[i] += h
                xm = x.copy(); xm[i] -= h
                fd = (node.eval(xp) - node.eval(xm)) / (2 * h)
                assert node.diff(i).eval(x) == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_taylor_order0_matches_eval():
    # coefficient 0 is the plain value bit for bit; coefficient 1 is the
    # derivative along the state's coefficient 1, as `diff` gives it
    node = parse("x1^3 - 2*x1*x2 + pwl(x1; a, b)", {"a": -0.42, "b": 1.2})
    x = np.array([1.7, 0.3, 0.0])
    v = np.array([0.5, -1.25, 2.0])
    c0, c1 = TaylorMemo(np.array([x, v])).series(node, 1)
    assert c0 == node.eval(x)
    grad = [node.diff(i).eval(x) for i in range(3)]
    assert c1 == pytest.approx(np.dot(grad, v), rel=1e-14)


def test_parse_error_positions():
    with pytest.raises(ExprError, match="line 1, column 6"):
        parse("x1 + @")
    with pytest.raises(ExprError, match="unknown symbol 'y'"):
        parse("x1 + y")
    with pytest.raises(ExprError, match="trailing"):
        parse("x1 x2")


def test_pwl_requires_constant_slopes():
    with pytest.raises(ExprError, match="constant"):
        parse("pwl(x1; x2, 1)")
