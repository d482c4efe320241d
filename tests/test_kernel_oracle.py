"""The points-last determinant kernel against a points-first reference, bit for bit.

The reference is the kernel as it stood before the elimination moved its
batch axis last: the points-first LU of `oracles.reference_det_scaled`, and
(below) pwl branches compared against their labels at every Taylor order.
phi, L_V phi, the cofactor residual, `phi_scaled` and the hypercoplanarity
determinant must all come out with the same bits, sign bit included.
"""

import numpy as np
import pytest

from flowcurv import expr as ex
from flowcurv import get_model, load_model, manifold
from flowcurv.spectral import hypercoplanarity_check

from conftest import TWO_PWL, assert_same_bits, in_region_points
from oracles import reference_det_scaled, reference_eval, reference_pwl_value


class _LabelMemo(ex.TaylorMemo):
    """A memo whose pwl nodes resolve and compare their labels at every order."""

    def series(self, node, j):
        if not isinstance(node, ex.Pwl) or node.constant:
            return super().series(node, j)
        s = self.setdefault(node, [])
        while len(s) <= j:
            k = len(s)
            u = self.series(node.arg, k)
            branch = ex._resolve_branch(node.node_id, u[0], self.region)
            s.append(reference_pwl_value(node, u[k], branch, k))
        return s


def _reference_derivs(model, x, order, region):
    if region is None and model.pwl_args:
        region = model.classify(x.astype(float))
    coeffs = np.zeros((order + 1,) + x.shape, dtype=x.dtype)
    coeffs[0] = x
    memo = _LabelMemo(coeffs, region)
    for k in range(order):
        for i, e in enumerate(model.rhs_exprs):
            coeffs[k + 1, i] = memo.series(e, k)[k] / (k + 1)
    derivs = np.empty((order,) + x.shape, dtype=x.dtype)
    fact = 1.0
    for k in range(1, order + 1):
        fact *= k
        derivs[k - 1] = fact * coeffs[k]
    return derivs, region


def _stack_dets(derivs):
    """`reference_det_scaled` of a stack's (npts, n, cols) column matrices."""
    return reference_det_scaled(derivs.T if derivs.ndim == 2 else np.transpose(derivs, (2, 1, 0)))


def _reference_sample(model, x, region=None):
    x = np.asarray(x, dtype=float)
    n = model.dim
    derivs, region = _reference_derivs(model, x.astype(np.longdouble), n + 1, region)
    dets = _stack_dets(derivs)
    p, lie = dets[..., 0], dets[..., 1]
    tr = reference_eval(model.jac_exprs[0][0], x, region)
    for i in range(1, n):
        tr = tr + reference_eval(model.jac_exprs[i][i], x, region)
    resid = np.abs(lie - tr * p) / (1.0 + np.abs(tr * p))
    if x.ndim == 1:
        p, lie, resid = float(p), float(lie), float(resid)
    return p, lie, resid


def _reference_double(model, x, region=None):
    """The double-precision phi, lie_phi and phi_scaled."""
    x = np.asarray(x, dtype=float)
    n = model.dim
    derivs, _ = _reference_derivs(model, x, n + 1, region)
    p = _stack_dets(derivs[:n])[..., 0]
    lie = _stack_dets(derivs)[..., 1]
    value = np.abs(p)
    scale = np.prod(np.linalg.norm(derivs[:n], axis=1), axis=0)
    scaled = np.where(scale > 0.0, value / np.where(scale > 0.0, scale, 1.0), 0.0)[()]
    if x.ndim == 1:
        p, lie = float(p), float(lie)
    return p, lie, scaled


def _check_kernel(model, x, region=None):
    sample = manifold.manifold_sample(model, x, region)
    got = (sample.phi, sample.lie, sample.cofactor_residual, manifold.phi(model, x, region),
           manifold.lie_phi(model, x, region), manifold.phi_scaled(model, x, region))
    for value, expected in zip(got, (*_reference_sample(model, x, region),
                                     *_reference_double(model, x, region))):
        assert (type(value) is float) == (type(expected) is float)
        assert_same_bits(value, expected)
    derivs, _ = _reference_derivs(model, np.asarray(x, dtype=float), model.dim, region)
    assert_same_bits(hypercoplanarity_check(model, x, region).value_det,
                     _stack_dets(derivs)[..., 0])


def _states_across_regions(model, count, seed):
    """States in every region of the first pwl term, some with |x1| = 1 exactly."""
    x = np.concatenate([in_region_points(model, region, count, seed=seed)
                        for region in ("neg", "mid", "pos")]).T
    x[0, ::7] = 1.0
    x[0, 3::7] = -1.0
    return x


@pytest.mark.parametrize("name", ["chua3-pwl", "chua5-pwl"])
def test_kernel_matches_points_first_reference(name):
    model = get_model(name)
    x = _states_across_regions(model, 40, seed=3)
    labels = model.classify(x)
    assert set(labels) == {"neg", "mid", "pos"}
    _check_kernel(model, x)
    for i in (0, 3, 5, 50, 100):
        _check_kernel(model, x[:, i])


def test_kernel_matches_reference_on_two_pwl_terms():
    model = load_model(TWO_PWL)
    rng = np.random.default_rng(4)
    x = rng.uniform(-3.0, 3.0, (3, 300))
    x[0, ::9] = 1.0
    x[1, 4::9] = 1.0 - x[2, 4::9]  # x2 + x3 rounds to the breakpoint or next to it
    labels = model.classify(x)
    assert isinstance(labels, tuple) and len(labels) == 2
    assert all(set(term) == {"neg", "mid", "pos"} for term in labels)
    _check_kernel(model, x)
    _check_kernel(model, x, labels)
    for i in range(5):
        _check_kernel(model, x[:, i])
        _check_kernel(model, x[:, i], tuple(term[i] for term in labels))


def test_pinned_region_array_matches_classified_one():
    model = get_model("chua5-pwl")
    x = _states_across_regions(model, 30, seed=8)
    labels = model.classify(x)
    pinned = manifold.manifold_sample(model, x, labels.copy())
    classified = manifold.manifold_sample(model, x)
    for field in ("phi", "lie", "cofactor_residual"):
        assert_same_bits(getattr(pinned, field), getattr(classified, field))
    _check_kernel(model, x, labels.copy())


def test_successive_expansions_keep_their_own_regions():
    # the same pwl nodes serve both expansions; masks must not carry over
    model = get_model("chua3-pwl")
    x = _states_across_regions(model, 30, seed=9)
    labels = model.classify(x)
    shifted = np.roll(labels, 1)
    assert np.any(shifted != labels)
    for region in (labels, shifted, np.full(labels.shape, "pos", dtype=object), labels):
        _check_kernel(model, x, region)
    two = load_model(TWO_PWL)
    y = np.random.default_rng(5).uniform(-3.0, 3.0, (3, 200))
    first, second = two.classify(y)
    for region in ((first, second), (second, first), (first, second)):
        _check_kernel(two, y, region)
