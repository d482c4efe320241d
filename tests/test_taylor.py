"""The derivative stack against two oracles that share no code with it.

1. A test-only copy of the operator-overloaded `Jet` recurrence the stack
   used before Taylor coefficients were computed node by node: every rhs
   tree is evaluated again, on jets of growing length, at every order.  Its
   product sums each coefficient from its first term, as the stack does
   (the retired `Jet` summed from zeros, which turned a lone -0.0 product
   into +0.0).  The node-by-node stack must equal it bit for bit, zero
   signs included.
2. The symbolic recurrence d_{k+1} = (d d_k / dx) V, built with sympy as
   exact rational polynomials and evaluated exactly (skipped without sympy).
"""

import itertools

import numpy as np
import pytest

from flowcurv import (derivative_stack, expr as ex, fixed_points, get_model, load_model,
                      registry)
from flowcurv.jets import MAX_ORDER

from conftest import POWERS, TWO_PWL, ZERO_SIGNS, assert_same_bits, reversed_model



def _oracle_models():
    models = [get_model(name) for name in registry()]
    models.append(reversed_model(get_model("chua3-pwl")))
    models += [load_model(TWO_PWL), load_model(POWERS), load_model(ZERO_SIGNS)]
    return models


# ---------------------------------------------------------------------------
# Oracle 1: the Jet recurrence, copied from the code it replaced.
# ---------------------------------------------------------------------------


class _Jet:
    """Truncated Taylor series c_0..c_M with the old operator overloads."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, _Jet):
            return other
        c = np.zeros_like(self.coeffs)
        c[0] = other
        return _Jet(c)

    def __add__(self, other):
        return _Jet(self.coeffs + self._coerce(other).coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        return _Jet(self.coeffs - self._coerce(other).coeffs)

    def __rsub__(self, other):
        return _Jet(self._coerce(other).coeffs - self.coeffs)

    def __neg__(self):
        return _Jet(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating)):
            return _Jet(self.coeffs * other)
        a, b = self.coeffs, self._coerce(other).coeffs
        out = np.empty_like(a)
        for k in range(a.shape[0]):
            out[k] = a[0] * b[k]
            for j in range(1, k + 1):
                out[k] += a[j] * b[k - j]
        return _Jet(out)

    __rmul__ = __mul__


def _old_ipow(value, exponent):
    result = 1.0
    base = value
    e = exponent
    while e:
        if e & 1:
            result = result * base
        if e > 1:
            base = base * base
        e >>= 1
    return result


def _jet_eval(node, state, region):
    """What `Node.eval` did on a list of jets."""
    if isinstance(node, ex.Const):
        return node.value
    if isinstance(node, ex.Var):
        return state[node.index]
    if isinstance(node, ex.Neg):
        return -_jet_eval(node.arg, state, region)
    if isinstance(node, ex.Pow):
        return _old_ipow(_jet_eval(node.base, state, region), node.exponent)
    if isinstance(node, ex.Pwl):
        u = _jet_eval(node.arg, state, region)
        branch = region if isinstance(region, (str, np.ndarray)) else region[node.node_id]
        a, b = node.a, node.b
        values = {"mid": a * u, "pos": b * (u - 1.0) + a, "neg": b * (u + 1.0) - a}
        if isinstance(branch, str):
            return values[branch]
        return _Jet(np.where(branch == "mid", values["mid"].coeffs,
                             np.where(branch == "pos", values["pos"].coeffs,
                                      values["neg"].coeffs)))
    left = _jet_eval(node.left, state, region)
    right = _jet_eval(node.right, state, region)
    if isinstance(node, ex.Add):
        return left + right
    if isinstance(node, ex.Sub):
        return left - right
    return left * right


def _jet_stack(model, x, order, region=None):
    """d_1..d_order by re-evaluating the rhs on jets at every order."""
    if region is None and model.pwl_args:
        region = model.classify(x.astype(float))
    coeffs = np.zeros((order + 1,) + x.shape, dtype=x.dtype)
    coeffs[0] = x
    for k in range(order):
        jets = [_Jet(coeffs[: k + 1, i]) for i in range(model.dim)]
        fx = [_jet_eval(e, jets, region) for e in model.rhs_exprs]
        for i in range(model.dim):
            coeffs[k + 1, i] = fx[i].coeffs[k] / (k + 1)
    derivs = np.empty((order,) + x.shape, dtype=x.dtype)
    fact = 1.0
    for k in range(1, order + 1):
        fact *= k
        derivs[k - 1] = fact * coeffs[k]
    return derivs


def _states(model, npts, seed):
    """Points in every pwl region, with +0.0 and -0.0 coordinates mixed in."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.5, 2.5, (model.dim, npts))
    x[rng.random(x.shape) < 0.15] = 0.0
    x[rng.random(x.shape) < 0.15] = -0.0
    return x


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble], ids=["float64", "longdouble"])
@pytest.mark.parametrize("model", _oracle_models(), ids=lambda m: m.name)
def test_batched_stack_equals_jet_recurrence(model, dtype):
    x = _states(model, 24, seed=model.dim).astype(dtype)
    for order in range(1, MAX_ORDER + 1):
        got = derivative_stack(model, x, order).derivs
        assert got.dtype == dtype
        assert_same_bits(got, _jet_stack(model, x, order))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble], ids=["float64", "longdouble"])
@pytest.mark.parametrize("model", _oracle_models(), ids=lambda m: m.name)
def test_single_point_stack_equals_jet_recurrence(model, dtype):
    x = _states(model, 6, seed=model.dim + 1).astype(dtype)
    for k in range(x.shape[1]):
        point = x[:, k].copy()
        for order in (model.dim + 1, MAX_ORDER):
            assert_same_bits(derivative_stack(model, point, order).derivs,
                             _jet_stack(model, point, order))


def _zero_velocity_states(model):
    """(state, region) pairs where every coefficient above order 0 is +-0.0:
    the fixed points, pinned to their own branch (virtual ones included),
    and every sign pattern of the origin."""
    pairs = [(fp.location, fp.region) for fp in fixed_points(model)]
    signs = itertools.product((0.0, -0.0), repeat=model.dim)
    return pairs + [(np.array(z), None) for z in signs]


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble], ids=["float64", "longdouble"])
@pytest.mark.parametrize("model", [m for m in _oracle_models() if m.dim <= 5],
                         ids=lambda m: m.name)
def test_zero_velocity_stack_equals_jet_recurrence(model, dtype):
    pairs = _zero_velocity_states(model)
    for x, region in pairs:
        x = x.astype(dtype)
        assert_same_bits(derivative_stack(model, x, model.dim + 1, region=region).derivs,
                         _jet_stack(model, x, model.dim + 1, region))
    # the sign patterns of the origin as one batch
    x = np.array([x for x, region in pairs if region is None], dtype=dtype).T
    assert_same_bits(derivative_stack(model, x, model.dim + 1).derivs,
                     _jet_stack(model, x, model.dim + 1))


def test_states_mix_zero_signs():
    # the sample must exercise the sign of zero, or the signbit check is empty
    x = _states(get_model("chua5-pwl"), 24, seed=5)
    assert np.any((x == 0.0) & np.signbit(x)) and np.any((x == 0.0) & ~np.signbit(x))
    derivs = derivative_stack(get_model("chua5-pwl"), x, 6).derivs
    assert np.any((derivs == 0.0) & np.signbit(derivs))


# ---------------------------------------------------------------------------
# Oracle 2: sympy's symbolic recurrence d_{k+1} = (d d_k / dx) V.
# ---------------------------------------------------------------------------

# Bound on ||d_k(stack) - d_k(exact)|| / ||d_k(exact)|| at orders 1..n+1 in
# float64, d_k(exact) being the symbolic polynomial evaluated in rationals
# at the same double-precision point.  The largest error over the cases
# below is 3.8e-14 (chua4-cubic, where d_k cancels); the other cases stay
# below 1e-15.
SYMBOLIC_RTOL = 1e-12


def _to_sympy(sp, node, xs, branch):
    def conv(n):
        return _to_sympy(sp, n, xs, branch)

    if isinstance(node, ex.Const):
        return sp.Rational(node.value)  # the double's exact value
    if isinstance(node, ex.Var):
        return xs[node.index]
    if isinstance(node, ex.Neg):
        return -conv(node.arg)
    if isinstance(node, ex.Pow):
        return conv(node.base) ** node.exponent
    if isinstance(node, ex.Pwl):
        u = conv(node.arg)
        a, b = sp.Rational(node.a), sp.Rational(node.b)
        return {"mid": a * u, "pos": b * (u - 1) + a, "neg": b * (u + 1) - a}[branch]
    left, right = conv(node.left), conv(node.right)
    if isinstance(node, ex.Add):
        return left + right
    if isinstance(node, ex.Sub):
        return left - right
    return left * right


def _symbolic_stack(sp, model, branch, order):
    """d_1..d_order as exact polynomials over the rationals, one region's branch."""
    xs = sp.symbols(f"x1:{model.dim + 1}")
    field = [sp.Poly(_to_sympy(sp, e, xs, branch), *xs, domain="QQ") for e in model.rhs_exprs]
    derivs = [field]
    for _ in range(order - 1):
        derivs.append([sum((d.diff(x) * v for x, v in zip(xs, field)),
                           sp.Poly(0, *xs, domain="QQ"))
                       for d in derivs[-1]])
    return xs, derivs


SYMBOLIC_CASES = [("chua4-cubic", None), ("chua5-cubic", None),
                  ("magnetoconvection5", None), ("gear5", None),
                  ("chua3-pwl", "neg"), ("chua3-pwl", "mid"), ("chua3-pwl", "pos")]


@pytest.mark.parametrize("name,branch", SYMBOLIC_CASES,
                         ids=[f"{n}-{b}" if b else n for n, b in SYMBOLIC_CASES])
def test_stack_matches_symbolic_recurrence(name, branch):
    sp = pytest.importorskip("sympy")
    model = get_model(name)
    order = model.dim + 1
    xs, exact = _symbolic_stack(sp, model, branch, order)
    rng = np.random.default_rng(17)
    points = rng.uniform(-2.0, 2.0, (10, model.dim))
    if branch is not None:  # x1 inside the pinned region
        points[:, 0] = {"neg": -1.0 - rng.random(10), "mid": rng.uniform(-1.0, 1.0, 10),
                        "pos": 1.0 + rng.random(10)}[branch]
    for x in points:
        got = derivative_stack(model, x, order, region=branch).derivs
        at = dict(zip(xs, (sp.Rational(float(v)) for v in x)))
        for k in range(order):
            ref = np.array([float(d.eval(at)) for d in exact[k]])
            err = np.linalg.norm(got[k] - ref)
            assert err <= SYMBOLIC_RTOL * np.linalg.norm(ref), (k + 1, x)
