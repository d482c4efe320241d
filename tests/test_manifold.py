"""phi, its Lie derivative, Darboux residuals, zero sets, slow/fast checks."""

import importlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from flowcurv import expr as ex

from flowcurv import (darboux_residual, factor_check, fixed_points, get_model,
                      integrate, lie_phi, load_model, manifold_sample, phi, phi_scaled,
                      zero_crossings_on_trajectory, zero_set_grid)
from flowcurv import manifold
from flowcurv.integrate import Trajectory
from flowcurv.models import magneto_equilibrium, point_regions
from flowcurv.manifold import _singular_points
from flowcurv.verify import lie_fd_residuals

from conftest import TWO_PWL, assert_same_bits, in_region_points

# Pi_2 of the 3-D circuit: the invariant plane through (3/2, 0, -3/2), the
# fixed point of the x1 >= 1 region, after x3-coefficient normalization.
PLANE3 = np.array([2.8759, -3.9421, 1.0])
OFFSET3_POS = -2.8139


def plane3_point(x1, x2):
    x3 = -OFFSET3_POS - PLANE3[0] * x1 - PLANE3[1] * x2
    return np.array([x1, x2, x3])


def test_phi_zero_at_fixed_points(models_by_name):
    for model in models_by_name.values():
        for fp in fixed_points(model):
            assert phi(model, fp.location, region=fp.region) == 0.0
            assert lie_phi(model, fp.location, region=fp.region) == 0.0


def test_phi_vanishes_on_plane_in_region(chua3):
    # points exactly on the invariant plane of the x1 > 1 region: phi is
    # smaller than at matched off-plane points by many orders of magnitude
    from flowcurv import tls_hyperplane
    fp = [f for f in fixed_points(chua3) if f.region == "pos"][0]
    plane = tls_hyperplane(chua3, fp)
    # the computed plane matches the published 4-digit equation
    disp = plane.display("last1")
    np.testing.assert_allclose(disp, [2.8759, -3.9421, 1.0, -2.8139], atol=1e-3)
    rng = np.random.default_rng(0)
    on, off = [], []
    for _ in range(50):
        x1, x2 = rng.uniform(1.3, 2.5), rng.uniform(-1, 1)
        x3 = -(plane.offset + plane.normal[0] * x1 + plane.normal[1] * x2) / plane.normal[2]
        x = np.array([x1, x2, x3])
        assert chua3.classify(x) == "pos"
        on.append(abs(phi(chua3, x)))
        off.append(abs(phi(chua3, x + 0.1 * plane.normal)))
    assert max(on) <= 1e-6 * np.median(off)


def test_phi_nonzero_off_plane(chua3):
    # (2, 0, 0) violates the region's plane equation by direct substitution
    x = np.array([2.0, 0.0, 0.0])
    assert abs(PLANE3 @ x + OFFSET3_POS) > 1.0
    scale = abs(phi_scaled(chua3, x))
    assert scale > 1e-3 * 1.0 or abs(phi(chua3, x)) > 1e-3


def test_lie_phi_equals_trace_cofactor_in_pwl_regions(chua3, chua4):
    for model in (chua3, chua4):
        for region in ("pos", "neg", "mid"):
            for x in in_region_points(model, region, 30, seed=1):
                p = phi(model, x)
                lie = lie_phi(model, x)
                tr = np.trace(model.jacobian(x))
                assert abs(lie - tr * p) <= 1e-8 * (1 + abs(tr * p))


def test_darboux_residual_pwl_and_linear():
    chua3 = get_model("chua3-pwl")
    for region in ("pos", "neg", "mid"):
        for x in in_region_points(chua3, region, 50, seed=2):
            assert darboux_residual(chua3, x) <= 1e-8
    # purely linear system: constant Jacobian everywhere
    linear = load_model({
        "name": "linear3", "dim": 3, "params": {},
        "rhs": ["-x1 + 2*x2", "x1 - x2 + x3", "-3*x3 + x1"],
    })
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.uniform(-5, 5, 3)
        assert darboux_residual(linear, x) <= 1e-10


def test_darboux_residual_decreases_toward_singular_approximation():
    model = get_model("chua4-cubic")
    c1, c2 = model.params["c1"], model.params["c2"]
    rng = np.random.default_rng(4)
    profile = {0.0: [], 0.1: [], 0.5: []}
    for _ in range(40):
        x1 = rng.uniform(-1.5, 1.5)
        x = np.array([x1, rng.uniform(-1, 1), c1 * x1 ** 3 + c2 * x1,
                      rng.uniform(-1, 1)])
        # displace x3 away from the constraint x3 = k(x1) <=> f1 = 0
        for d in profile:
            y = x.copy()
            y[2] += d
            profile[d].append(float(darboux_residual(model, y)))
    med = {d: np.median(v) for d, v in profile.items()}
    assert med[0.0] < med[0.1] < med[0.5]


def test_manifold_sample_fields(chua3):
    s = manifold_sample(chua3, [1.5, 0.3, -1.0])
    assert s.region == "pos"
    assert s.cofactor_residual <= 1e-8
    assert s.phi != 0.0


def test_manifold_sample_batch_equals_single_points(chua5):
    rng = np.random.default_rng(8)
    x = rng.uniform(-3, 3, (5, 40))
    batch = manifold_sample(chua5, x)
    assert batch.phi.shape == batch.lie.shape == batch.cofactor_residual.shape == (40,)
    for k in range(40):
        s = manifold_sample(chua5, x[:, k])
        assert (s.phi, s.lie, s.cofactor_residual, s.region) == (
            batch.phi[k], batch.lie[k], batch.cofactor_residual[k], batch.region[k])
        assert s.phi == phi(chua5, x[:, k].astype(np.longdouble))
    np.testing.assert_array_equal(darboux_residual(chua5, x), batch.cofactor_residual)


def test_batched_darboux_residual_honours_pinned_region(chua3):
    # middle-region points evaluated on the pinned outer branch: the field is
    # affine there, so the residual vanishes; the trace must use that branch too
    x = np.array([[0.5, 0.2, -0.3], [-0.4, 0.1, 0.6]]).T
    assert [chua3.classify(x[:, k]) for k in range(2)] == ["mid", "mid"]
    singles = [darboux_residual(chua3, x[:, k], region="pos") for k in range(2)]
    batch = darboux_residual(chua3, x, region="pos")
    assert list(batch) == singles
    assert max(singles) <= 1e-12
    assert manifold_sample(chua3, x, region="pos").region == "pos"


# -- zero-set extraction --------------------------------------------------------

def test_zero_set_grid_recovers_plane(chua3):
    zs = zero_set_grid(chua3, {0: (1.2, 3.0, 12), 1: (-1.0, 1.0, 10),
                               2: (-4.0, 0.0, 24)})
    pts = [p for p, r in zip(zs.points, zs.regions) if r == "pos"]
    assert len(pts) > 50
    for p in pts:
        assert abs(PLANE3 @ p + OFFSET3_POS) <= 5e-3
    # every refined point beats the tolerance contract
    for p, v in zip(zs.points, zs.phi_values):
        assert np.isfinite(v)


def test_zero_set_grid_empty_when_sign_definite(chua3):
    # far from the plane, inside one region, phi keeps one sign
    zs = zero_set_grid(chua3, {0: (1.5, 2.0, 4), 1: (-0.2, 0.2, 4)},
                       {2: 8.0})
    assert len(zs) == 0


def test_zero_set_grid_gear_factors(gear):
    # slice x4 = x5 = 0; crossings land on x3 = x1^2 + x2^2 (or the x1=x2=0 line)
    zs = zero_set_grid(gear, {0: (-1.5, 1.5, 9), 1: (-1.5, 1.5, 9),
                              2: (0.05, 3.0, 16)}, {3: 0.0, 4: 0.0})
    assert len(zs) > 30

    def on_sheet(p):
        return abs(p[0] ** 2 + p[1] ** 2 - p[2]) <= 5e-3 * (1 + p[2])

    for p in zs.points:
        if not on_sheet(p):
            assert np.hypot(p[0], p[1]) <= 0.3  # degenerate x1 = x2 = 0 set
    assert sum(map(on_sheet, zs.points)) >= 0.8 * len(zs)
    # grid nodes on the x1 = x2 = 0 line are exact zeros, reported once each;
    # a refined point may hit phi == 0.0 too, and then it lies on the sheet
    zeros = [p for p, v in zip(zs.points, zs.phi_values) if v == 0.0]
    zero_nodes = [p for p in zeros if p[0] == 0.0 and p[1] == 0.0]
    assert zs.metadata["exact_zero_nodes"] == len(zero_nodes) == 16
    assert all(on_sheet(p) for p in zeros if not (p[0] == 0.0 and p[1] == 0.0))


_EPS = np.finfo(float).eps


def _reference_refine_edge(model, p_lo, p_hi, f_lo, f_hi, tol_rel, max_iter=90):
    """The single-edge rule lockstep refinement must keep, on scalar phi.

    Split at region changes (labels only), then ITP on the bracket, then the
    float-width straddle test.  Returns (t, phi) or None for a dropped edge.
    """
    step = p_hi - p_lo

    def at(t):
        return p_lo + t * step

    def phi_at(t):
        return float(phi(model, at(t)))

    a, b, fa, fb = 0.0, 1.0, f_lo, f_hi
    if model.pwl_args and model.classify(p_lo) != model.classify(p_hi):
        while True:
            start, lo, hi = model.classify(at(a)), a, 1.0
            while hi - lo > _EPS:
                mid = 0.5 * (lo + hi)
                if model.classify(at(mid)) == start:
                    lo = mid
                else:
                    hi = mid
            f_l, f_h = phi_at(lo), phi_at(hi)
            if not (np.isfinite(f_l) and np.isfinite(f_h)):
                return None
            if f_l == 0.0 or np.sign(f_l) * np.sign(fa) < 0:
                a, b, fb = (lo if f_l == 0.0 else a), lo, f_l
                break
            a, fa = hi, f_h
            if f_h == 0.0:
                b = hi
                break
            if model.classify(at(hi)) == model.classify(p_hi):
                if np.sign(f_h) * np.sign(fb) > 0:
                    return None  # a jump: no sign change inside one region
                break
    target = tol_rel * max(abs(fa), abs(fb))
    if b - a > _EPS:
        w0 = b - a
        mant, expo = math.frexp(w0)
        budget = math.ldexp(0.5 if mant == 0.5 else 1.0, expo + manifold._ITP_SLACK - 1)
        for _ in range(max_iter):
            w, half = b - a, 0.5 * (a + b)
            x_f = a + w * (fa / (fa - fb))
            sigma = float(np.sign(half - x_f))
            delta = 0.2 / w0 * w * w
            x_t = x_f + sigma * delta if delta <= abs(half - x_f) else half
            r = max(budget - 0.5 * w, 0.0)
            x = x_t if abs(x_t - half) <= r else half - sigma * r
            f = phi_at(x)
            budget *= 0.5
            if not np.isfinite(f):
                return None
            if abs(f) <= target:
                return x, f
            if (f > 0) == (fa > 0):
                a, fa = x, f
            else:
                b, fb = x, f
            if b - a <= _EPS:
                break
    t = 0.5 * (a + b)
    f = phi_at(t)
    if not np.isfinite(f) or (model.pwl_args and model.classify(at(a)) != model.classify(at(b))):
        return None
    return t, f


def _grid_edges(model, axes, slice_values):
    """Both end nodes (m, n) and phi values of every sign-changing grid edge."""
    states, shape = manifold.grid_states(model.dim, axes, slice_values)
    values = phi(model, states)
    grid, node = values.reshape(shape), np.arange(values.size).reshape(shape)
    lo, hi = [], []
    for axis in range(grid.ndim):
        sl_lo = tuple(slice(0, -1) if a == axis else slice(None) for a in range(grid.ndim))
        sl_hi = tuple(slice(1, None) if a == axis else slice(None) for a in range(grid.ndim))
        crossing = np.sign(grid[sl_lo]) * np.sign(grid[sl_hi]) < 0
        lo.append(node[sl_lo][crossing])
        hi.append(node[sl_hi][crossing])
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    return states[:, lo].T, states[:, hi].T, values[lo], values[hi]


def _reference_zero_set(model, axes, slice_values, tol_rel=1e-9):
    """Edge points of a grid, each edge refined alone with scalar phi."""
    points, phis = [], []
    for p_lo, p_hi, f_lo, f_hi in zip(*_grid_edges(model, axes, slice_values)):
        found = _reference_refine_edge(model, p_lo, p_hi, float(f_lo), float(f_hi), tol_rel)
        if found is not None:
            points.append(p_lo + found[0] * (p_hi - p_lo))
            phis.append(found[1])
    order = sorted(range(len(points)), key=lambda k: tuple(points[k]))
    return np.array([points[k] for k in order]), np.array([phis[k] for k in order])


@pytest.mark.parametrize("name, axes, slice_values", [
    ("chua4-cubic", {0: (-2.0, 2.0, 10), 1: (-2.0, 2.0, 10), 2: (-2.0, 2.0, 10)},
     {3: 0.0}),
    ("gear5", {0: (-1.5, 1.5, 6), 1: (-1.5, 1.5, 6), 2: (0.05, 3.0, 8)},
     {3: 0.0, 4: 0.0}),
    ("chua3-pwl", {0: (-3.0, 3.0, 60), 1: (-1.0, 1.0, 60)}, {2: 0.0}),
    (TWO_PWL, {0: (-3.0, 3.0, 10), 1: (-2.0, 2.0, 10), 2: (-2.0, 2.0, 6)}, {}),
    # every x1 edge spans both breakpoints, so its pieces are split twice
    ("chua3-pwl", {0: (-2.5, 2.5, 2), 1: (-1.0, 1.0, 10), 2: (-3.0, 3.0, 10)}, {}),
])
def test_zero_set_grid_matches_scalar_bisection(name, axes, slice_values):
    # lockstep refinement gives, bit for bit, each edge refined alone
    model = load_model(name)
    zs = zero_set_grid(model, axes, slice_values)
    points, phis = _reference_zero_set(model, axes, slice_values)
    assert len(zs) > 50 and zs.metadata["exact_zero_nodes"] == 0
    assert np.array_equal(zs.points, points)
    assert np.array_equal(zs.phi_values, phis)
    assert (zs.metadata["split_edges"] > 0) == bool(model.pwl_args)


def _bisection_keep(model, p_lo, p_hi, f_lo, target, max_iter=90):
    """Edges kept by lockstep bisection to the float width, then the straddle test."""
    m, step = len(f_lo), p_hi - p_lo
    lo, hi, mids, f_mid = np.zeros(m), np.ones(m), np.empty(m), np.empty(m)

    def at(edges, t):
        return p_lo[edges] + t[:, None] * step[edges]

    def evaluate(edges):
        mids[edges] = 0.5 * (lo[edges] + hi[edges])
        f_mid[edges] = phi(model, at(edges, mids[edges]).T)
        return f_mid[edges]

    active, unconverged = np.arange(m), []
    for _ in range(max_iter):
        if not active.size:
            break
        f = evaluate(active)
        still = np.isfinite(f) & (np.abs(f) > target[active])
        active, f = active[still], f[still]
        same = (f > 0) == (f_lo[active] > 0)
        lo[active[same]] = mids[active[same]]
        hi[active[~same]] = mids[active[~same]]
        wide = hi[active] - lo[active] > _EPS
        unconverged.append(active[~wide])
        active = active[wide]
    unconverged = np.concatenate(unconverged + [active])
    evaluate(unconverged)
    jumps = np.zeros(m, dtype=bool)
    if model.pwl_args and unconverged.size:
        jumps[unconverged] = [model.classify(x) != model.classify(y) for x, y in
                              zip(at(unconverged, lo[unconverged]), at(unconverged, hi[unconverged]))]
    return ~(~np.isfinite(f_mid) | jumps)


@pytest.mark.parametrize("name, axes, slice_values, differing", [
    ("chua3-pwl", {0: (-3.0, 3.0, 60), 1: (-1.0, 1.0, 60)}, {2: 0.0}, 0),
    ("chua4-cubic", {0: (-2.0, 2.0, 10), 1: (-2.0, 2.0, 10), 2: (-2.0, 2.0, 10)}, {3: 0.0}, 0),
    ("gear5", {0: (-1.5, 1.5, 9), 1: (-1.5, 1.5, 9), 2: (0.05, 3.0, 16)}, {3: 0.0, 4: 0.0}, 0),
    (TWO_PWL, {0: (-3.0, 3.0, 20), 1: (-2.0, 2.0, 20)}, {2: 0.5}, 0),
    (TWO_PWL, {0: (-3.0, 3.0, 10), 1: (-2.0, 2.0, 10), 2: (-2.0, 2.0, 6)}, {}, 2),
])
def test_refinement_keeps_the_edges_bisection_keeps(name, axes, slice_values, differing):
    # the same edges yield a point and the same are dropped as with bisection
    model = load_model(name)
    p_lo, p_hi, f_lo, f_hi = _grid_edges(model, axes, slice_values)
    target = 1e-9 * np.maximum(np.abs(f_lo), np.abs(f_hi))
    t, f, refined_to, keep, _ = manifold._refine_edges(model, p_lo, p_hi, f_lo, f_hi, 1e-9)
    differ = np.flatnonzero(keep != _bisection_keep(model, p_lo, p_hi, f_lo, target))
    assert differ.size == differing
    for k in differ:
        # bisection found one of an even number of zeros inside one region,
        # which the ends of that single-region piece do not bracket
        ts = np.linspace(0.0, 1.0, 2001)
        pts = p_lo[k] + ts[:, None] * (p_hi[k] - p_lo[k])
        signs, regions = np.sign(phi(model, pts.T)), point_regions(model, pts.T)
        inside = [i for i in range(2000) if signs[i] != signs[i + 1]
                  and regions[i] == regions[i + 1]]
        assert not keep[k] and len(inside) >= 2
    # each point meets the tolerance of the bracket it was refined in (the
    # edge, or its single-region piece), or phi changes sign within a float
    # of it inside one region
    one_region = np.array([model.classify(x) == model.classify(y) for x, y in zip(p_lo, p_hi)])
    assert np.array_equal(refined_to[one_region], target[one_region])
    for k in np.flatnonzero(keep & (np.abs(f) > refined_to)):
        x_lo, x_hi = (p_lo[k] + s * (p_hi[k] - p_lo[k]) for s in (t[k] - _EPS, t[k] + _EPS))
        assert model.classify(x_lo) == model.classify(x_hi)
        assert np.sign(phi(model, x_lo)) * np.sign(phi(model, x_hi)) <= 0


def test_zero_set_grid_drops_pwl_jumps(chua3):
    # sign changes of phi across |x1| = 1 are jumps: no sign change is left
    # on either side of the breakpoint, and the edge is dropped
    zs = zero_set_grid(chua3, {0: (-3.0, 3.0, 60), 1: (-1.0, 1.0, 60)}, {2: 0.0})
    assert len(zs) > 100
    assert zs.metadata["dropped_jumps"] == 60
    assert np.all(np.abs(np.abs(zs.points[:, 0]) - 1.0) > 1e-9)
    assert max(phi_scaled(chua3, p) for p in zs.points) <= 1e-9


def test_zero_set_grid_drops_jumps_at_every_tolerance(chua3):
    # a loose tolerance must not accept a point next to a breakpoint
    axes, slices = {0: (-3.0, 3.0, 60), 1: (-1.0, 1.0, 60)}, {2: 0.0}
    sets = [zero_set_grid(chua3, axes, slices, tol_rel=tol) for tol in (1e-9, 0.1, 0.5)]
    assert len({len(zs) for zs in sets}) == 1
    for zs in sets:
        assert zs.metadata["dropped_jumps"] == 60
        assert np.all(np.abs(np.abs(zs.points[:, 0]) - 1.0) > 1e-9)


@pytest.mark.parametrize("name, axes, slice_values", [
    ("chua3-pwl", {0: (-3.0, 3.0, 60), 1: (-1.0, 1.0, 60)}, {2: 0.0}),
    ("chua4-cubic", {0: (-2.0, 2.0, 10), 1: (-2.0, 2.0, 10), 2: (-2.0, 2.0, 10)}, {3: 0.0}),
])
def test_zero_set_grid_closes_at_zero_tolerance(name, axes, slice_values):
    # tol_rel = 0 refines every bracket to one float within max_iter rounds
    model = get_model(name)
    meta = zero_set_grid(model, axes, slice_values, tol_rel=0.0).metadata
    jumps = zero_set_grid(model, axes, slice_values).metadata["dropped_jumps"]
    assert meta["refine_rounds"] <= 90
    assert meta["nonfinite_refinements"] == 0 and meta["dropped_jumps"] == jumps
    assert meta["unconverged"] == meta["edges_bracketed"] - jumps


@pytest.mark.parametrize("config, axes, slice_values", [
    ("chua3-pwl", {0: (-3.0, 3.0, 60), 1: (-1.0, 1.0, 60)}, {2: 0.0}),
    (TWO_PWL, {0: (-3.0, 3.0, 20), 1: (-2.0, 2.0, 20)}, {2: 0.5}),
])
def test_zero_set_grid_regions_are_per_point_classify(config, axes, slice_values):
    # one batched region call labels the points as classify does one by one
    model = load_model(config)
    zs = zero_set_grid(model, axes, slice_values)
    assert len(zs) > 20
    assert zs.regions == tuple(model.classify(p) for p in zs.points)
    assert all(type(label) is (tuple if model.name == "two-pwl" else str)
               for label in zs.regions)


@pytest.mark.parametrize("name, axes, slice_values", [
    ("chua3-pwl", {0: (-3.0, 3.0, 60), 1: (-1.0, 1.0, 60)}, {2: 0.0}),
    ("chua4-cubic", {0: (-2.0, 2.0, 10), 1: (-2.0, 2.0, 10), 2: (-2.0, 2.0, 10)}, {}),
    ("gear5", {0: (-1.5, 1.5, 9), 1: (-1.5, 1.5, 9)}, {2: 1.0}),
])
def test_zero_set_grid_counters(name, axes, slice_values):
    zs = zero_set_grid(get_model(name), axes, slice_values)
    meta = zs.metadata
    assert meta["axes"] == axes
    assert len(zs) == (meta["edges_bracketed"] - meta["dropped_jumps"]
                       - meta["nonfinite_refinements"] + meta["exact_zero_nodes"])
    # a jump is dropped at its split or by the float-width straddle test
    assert meta["unconverged"] + meta["split_edges"] >= meta["dropped_jumps"]
    assert 0 < meta["refine_rounds"] <= 90
    assert meta["refine_phi_points"] >= meta["edges_bracketed"] + meta["unconverged"]


def test_zero_set_grid_validation(chua3):
    with pytest.raises(ValueError, match="2 or 3"):
        zero_set_grid(chua3, {0: (0, 1, 5)})
    with pytest.raises(ValueError, match="at least 2"):
        zero_set_grid(chua3, {0: (0, 1, 1), 1: (0, 1, 5)})
    with pytest.raises(ValueError, match="both"):
        zero_set_grid(chua3, {0: (0, 1, 5), 1: (0, 1, 5)}, {0: 1.0})
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="nonnegative"):
            zero_set_grid(chua3, {0: (-3, 3, 5), 1: (-1, 1, 5)}, tol_rel=bad)
    with pytest.raises(TypeError):  # the phi batch size is fixed, not an option
        zero_set_grid(chua3, {0: (-3, 3, 5), 1: (-1, 1, 5)}, chunk=-4096)


def test_fixed_values_are_not_keywords(chua3):
    # values that only ever took one setting are constants, not options, and
    # the list evaluator and the suite runner are gone
    from flowcurv import coplanarity_equivalence, spectrum_at, tls_hyperplane, verify
    fp = fixed_points(chua3)[2]
    traj = integrate(chua3, [0.1, 0.1, 0.1], 1.0)
    calls = [
        lambda: integrate(chua3, [0.1, 0.1, 0.1], 1.0, t0=0.0),
        lambda: zero_set_grid(chua3, {0: (-3, 3, 5), 1: (-1, 1, 5)}, tol_abs=0.0),
        lambda: manifold._refine_edges(chua3, np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0),
                                       np.zeros(0), 1e-9, max_iter=90),
        lambda: zero_crossings_on_trajectory(chua3, traj, degenerate_rtol=1e-12),
        lambda: factor_check(chua3, "x1", [(-2, 2)] * 3, samples=10, phi_tol=1e-6),
        lambda: factor_check(chua3, "x1", [(-2, 2)] * 3, samples=10, fit_tol=1e-6),
        lambda: tls_hyperplane(chua3, fp).equation(digits=8),
        lambda: spectrum_at(chua3, fp.location, fp.region).is_real(0, rtol=1e-9),
        lambda: fixed_points(chua3, include_virtual=False),
        lambda: coplanarity_equivalence(chua3, fp.location, spectrum=None, region=fp.region),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()
    assert not hasattr(chua3, "rhs") and not hasattr(verify, "run_suite")


def test_zero_crossings_on_trajectory(chua3):
    # Double-scroll phi sign changes happen at the region boundaries: inside
    # a region the trajectory approaches its invariant plane one-sidedly
    # along the fast eigendirection.  The located points are flagged as
    # region straddles and still pierce |x1| = 1 close to the planes.
    traj = integrate(chua3, [0.1, 0.1, 0.1], 250.0, rel_tol=1e-10, abs_tol=1e-12)
    with pytest.warns(UserWarning, match="straddles"):
        zs = zero_crossings_on_trajectory(chua3, traj)
    assert not zs.degenerate
    outer = [(p, r) for p, r in zip(zs.points, zs.regions) if r in ("pos", "neg")]
    assert len(outer) >= 10
    for p, r in outer:
        assert abs(abs(p[0]) - 1.0) <= 1e-9  # crossing localized to the boundary
        offset = OFFSET3_POS if r == "pos" else -OFFSET3_POS
        assert abs(PLANE3 @ p + offset) <= 1e-2


def _old_zero_crossings(model, traj, time_tol=1e-10):
    """Test-only copy of the time bisection that located trajectory zero
    crossings before they were found inside the trajectory's own DP step:
    every bisection step re-integrates from the bracket's lower state."""
    values = phi(model, traj.states.T)
    points, regions, straddle = [], [], []
    for k in range(len(traj.times) - 1):
        f0, f1 = values[k], values[k + 1]
        if not (np.isfinite(f0) and np.isfinite(f1)) or np.sign(f0) * np.sign(f1) >= 0:
            continue
        straddle.append(model.classify(traj.states[k]) != model.classify(traj.states[k + 1]))
        t_lo, t_hi, x_lo = traj.times[k], traj.times[k + 1], traj.states[k]
        while t_hi - t_lo > time_tol:
            t_mid = 0.5 * (t_lo + t_hi)
            sub = integrate(model, x_lo, t_mid - t_lo, rel_tol=1e-12, abs_tol=1e-14)
            x_mid = sub.states[-1]
            f_mid = float(phi(model, x_mid))
            if np.sign(f_mid) == np.sign(f0) and f_mid != 0.0:
                t_lo, x_lo = t_mid, x_mid
            else:
                t_hi = t_mid
        points.append(x_lo)
        if model.pwl_args:
            regions.append(model.classify(x_lo))
    return np.array(points), tuple(regions), tuple(straddle)


def test_zero_crossings_match_reintegrating_bisection(chua3, monkeypatch):
    traj = integrate(chua3, [0.1, 0.1, 0.1], 250.0, rel_tol=1e-10, abs_tol=1e-12)
    old_points, old_regions, old_straddle = _old_zero_crossings(chua3, traj)

    def forbidden(*args, **kwargs):
        raise AssertionError("zero crossings must not re-integrate")

    monkeypatch.setattr(importlib.import_module("flowcurv.integrate"), "integrate", forbidden)
    with pytest.warns(UserWarning, match="straddles"):
        zs = zero_crossings_on_trajectory(chua3, traj)
    assert len(zs) == len(old_points) == 24
    assert zs.regions == old_regions
    assert zs.metadata["straddle"] == old_straddle
    assert np.max(np.abs(zs.points - old_points)) <= 1e-9
    # one 2^-K h <= 1e-12 cell before the boundary, where bisection in time
    # to 1e-10 stopped up to ~2e-10 away
    assert np.max(np.abs(np.abs(zs.points[:, 0]) - 1.0)) <= 1e-11
    np.testing.assert_array_equal(zs.phi_values, [phi(chua3, p) for p in zs.points])
    # each point is on the pre-crossing side of its bracket
    values = phi(chua3, traj.states.T)
    pre = np.sign(values[np.flatnonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0)])
    np.testing.assert_array_equal(np.sign(zs.phi_values), pre)


def test_zero_crossings_keep_exact_zero_samples(chua3):
    # phi is odd about the origin in chua3-pwl's middle region, so phi is
    # exactly 0.0 there; such a sample is a point of its own, in time order
    x = np.array([0.3, 0.1, -0.2])
    for states, kinds in (([x, -x], "c"), ([x, 0.0 * x, -x], "z"),
                          ([x, 0.0 * x, -x, x], "zc"), ([x, -x, 0.0 * x, x], "cz")):
        zs = zero_crossings_on_trajectory(chua3, Trajectory(
            times=0.01 * np.arange(len(states)), states=np.array(states)))
        exact = np.array([kind == "z" for kind in kinds])
        assert zs.metadata["exact_zero_samples"] == exact.sum()
        assert zs.metadata["straddle"] == (False,) * len(kinds)
        assert_same_bits(zs.phi_values == 0.0, exact)
        assert_same_bits(zs.points[exact], np.tile(0.0 * x, (exact.sum(), 1)))


def test_zero_crossings_fixed_point_degenerate(chua3):
    fp = fixed_points(chua3)[2]
    traj = integrate(chua3, fp.location, 1.0, rel_tol=1e-9, abs_tol=1e-12)
    zs = zero_crossings_on_trajectory(chua3, traj)
    assert zs.degenerate
    assert len(zs) == 0
    # the keys of a set with points, describing no point
    assert zs.metadata == {"straddle": (), "dp_steps": 0, "exact_zero_samples": 0}


def test_zero_crossings_empty_on_sign_definite_arc(chua3):
    traj = integrate(chua3, [2.0, 0.0, 0.0], 0.01, rel_tol=1e-9, abs_tol=1e-12)
    zs = zero_crossings_on_trajectory(chua3, traj)
    assert len(zs) == 0 and not zs.degenerate


# -- slow/fast ------------------------------------------------------------------

@pytest.mark.parametrize("name", ["chua4-cubic", "chua5-cubic", "magnetoconvection5"])
def test_singular_points_solve_the_fast_equations(name):
    model = get_model(name)
    fast = list(model.slowfast_defaults["fast"])
    points = _singular_points(model, 30, np.random.default_rng(1))
    assert 20 < len(points) <= 30
    for x in points:
        assert np.linalg.norm(model.velocity(x)[fast]) <= 1e-12 * (1.0 + np.linalg.norm(x))


def test_slowfast_defaults_are_consistent(models_by_name):
    # the sampler trusts these entries: distinct fast indices, one box range
    # per slow coordinate, and magnetoconvection's centre in the slow dimension
    with_defaults = {name: model for name, model in models_by_name.items()
                     if model.slowfast_defaults is not None}
    assert sorted(with_defaults) == ["chua4-cubic", "chua5-cubic", "magnetoconvection5"]
    for model in with_defaults.values():
        defaults = model.slowfast_defaults
        fast = defaults["fast"]
        assert fast and len(set(fast)) == len(fast)
        assert all(0 <= i < model.dim for i in fast)
        assert len(defaults["box"]) == model.dim - len(fast)
        assert all(lo < hi for lo, hi in defaults["box"])
        assert defaults["box_center"] in (None, "equilibrium")
    magneto = with_defaults["magnetoconvection5"]
    assert magneto.slowfast_defaults["box_center"] == "equilibrium"
    center = np.delete(magneto_equilibrium(magneto), magneto.slowfast_defaults["fast"])
    assert center.shape == (len(magneto.slowfast_defaults["box"]),)


# A test-only copy of the per-point loops that the batched Newton driver
# replaced: the fast solve of the singular approximation and its sampler.
# The batched code must give their bits.

def _oracle_solve_fast(model, defaults, slow_values, seeds):
    fast = list(defaults["fast"])
    slow = [i for i in range(model.dim) if i not in fast]
    for seed in seeds:
        x = np.zeros(model.dim)
        x[slow] = slow_values
        x[fast] = seed
        ok = False
        for _ in range(80):
            f = np.asarray(model.velocity(x))[fast]
            if np.linalg.norm(f) <= 1e-12 * (1.0 + np.linalg.norm(x)):
                ok = True
                break
            J = model.jacobian(x)[np.ix_(fast, fast)]
            try:
                step = np.linalg.solve(J, f)
            except np.linalg.LinAlgError:
                break
            limit = 1.0 + np.linalg.norm(x[fast])
            norm = np.linalg.norm(step)
            if norm > limit:
                step *= limit / norm
            x[fast] = x[fast] - step
        if ok:
            return x
    return None


def _oracle_singular_points(model, defaults, samples, rng):
    nfast = len(defaults["fast"])
    for _ in range(samples):
        slow_values = np.array([rng.uniform(lo, hi) for lo, hi in defaults["box"]])
        if defaults["box_center"] == "equilibrium":
            slow_values = np.delete(magneto_equilibrium(model), defaults["fast"]) + slow_values
        seeds = [np.zeros(nfast)] + [rng.uniform(-3, 3, nfast) for _ in range(4)]
        x = _oracle_solve_fast(model, defaults, slow_values, seeds)
        if x is not None:
            yield x


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", [0, 1, 5, 12])
@pytest.mark.parametrize("name", ["chua4-cubic", "chua5-cubic", "magnetoconvection5"])
def test_singular_points_match_per_point_solve(name, seed):
    model = get_model(name)
    got = _singular_points(model, 40, np.random.default_rng(seed))
    want = list(_oracle_singular_points(model, model.slowfast_defaults, 40,
                                        np.random.default_rng(seed)))
    assert got.shape == (len(want), model.dim)
    assert got.tobytes() == np.array(want).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_singular_points_later_seed_after_singular_zero_seed():
    # dx1/dt = x1^3 + pwl(x2; 0, 1) x1 - 1: at the zero seed the fast Jacobian
    # pwl(x2; 0, 1) is exactly 0 for |x2| <= 1, so those draws need a random
    # seed, while draws with x2 > 1 solve from zero in the same batch
    model = load_model({"name": "kink", "dim": 2, "params": {},
                        "rhs": ["x1^3 + pwl(x2; 0, 1)*x1 - 1", "-x2"]})
    model = replace(model, slowfast_defaults={"fast": (0,), "box": [(0.0, 2.0)],
                                              "box_center": None})
    got = _singular_points(model, 30, np.random.default_rng(4))
    want = list(_oracle_singular_points(model, model.slowfast_defaults, 30,
                                        np.random.default_rng(4)))
    assert len(want) == 30 and got.tobytes() == np.array(want).tobytes()
    assert (got[:, 1] <= 1.0).any() and (got[:, 1] > 1.0).any()


# -- Darboux factors -------------------------------------------------------------

GEAR_BOX = [(-2, 2), (-2, 2), (-2, 2), (-5, 5), (-2, 2)]


def test_factor_check_gear_product_factor(gear):
    rep = factor_check(
        gear, "(x1^2 + x2^2)*(x1^2 + x2^2 - x3)*(x4^2 + beta1)", GEAR_BOX,
        samples=150, seed=0)
    assert rep.invariant
    coeffs = dict(zip(rep.cofactor_basis, rep.cofactor_coeffs))
    assert coeffs["1"] == pytest.approx(-1000.0, rel=1e-3)
    assert coeffs["x4"] == pytest.approx(2.0, rel=1e-3)
    others = {k: v for k, v in coeffs.items() if k not in ("1", "x4")}
    assert max(abs(v) for v in others.values()) <= 1e-3 * 1000
    assert rep.phi_scaled_max is not None and rep.phi_scaled_max <= 1e-6


def test_factor_check_gear_first_integral(gear):
    rep = factor_check(gear, "x1^2 + x2^2", GEAR_BOX, samples=100, seed=1)
    assert rep.first_integral
    assert rep.lie_factor_max == 0.0
    assert rep.invariant


def test_factor_check_negative_control(chua3):
    rep = factor_check(chua3, "x1", [(-2, 2)] * 3, samples=100, seed=2)
    assert not rep.first_integral
    assert not rep.invariant
    assert rep.cofactor_fit_residual > 1e-3


def test_factor_check_rejects_zero_factor(gear):
    with pytest.raises(ValueError, match="identically zero"):
        factor_check(gear, "0*x1", GEAR_BOX, samples=20)


@pytest.mark.parametrize("samples", [-4, 10.0])
def test_factor_check_rejects_bad_sample_count(gear, samples):
    with pytest.raises(ValueError, match="nonnegative integer"):
        factor_check(gear, "x1^2 + x2^2", GEAR_BOX, samples=samples)


def _oracle_factor_zero_points(model, factor, box, samples, seed):
    # factor_check's per-point gradient-flow projection, before batching
    n = model.dim
    node, _ = ex.parse_expression(factor, {f"x{i + 1}": i for i in range(n)}, model.params)
    grads = [node.diff(i) for i in range(n)]
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(samples):
        x = np.array([rng.uniform(lo, hi) for lo, hi in box])
        ok = False
        for _ in range(80):
            v = float(node.eval(x))
            scale = 1.0 + abs(v)
            g = np.array([d.eval(x) for d in grads], dtype=float)
            gnorm2 = g @ g
            if gnorm2 == 0.0:
                break
            x = x - v * g / gnorm2
            if abs(float(node.eval(x))) <= 1e-12 * scale:
                ok = True
                break
        if ok and np.isfinite(x).all():
            points.append(x)
    return np.array(points)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, factor, box, samples, seed", [
    ("gear5", "x1^2 + x2^2", GEAR_BOX, 60, 11),
    ("gear5", "x1^2 + x2^2 - x3", GEAR_BOX, 60, 11),
    ("gear5", "x4^2 + beta1", GEAR_BOX, 60, 11),
    ("gear5", "(x1^2 + x2^2)*(x1^2 + x2^2 - x3)*(x4^2 + beta1)", GEAR_BOX, 150, 7),
    ("chua3-pwl", "x1", [(-2, 2)] * 3, 100, 2)])
def test_factor_zero_points_match_per_point_projection(monkeypatch, name, factor, box,
                                                       samples, seed):
    # the zero-set points reach phi_scaled; capture them there
    model = get_model(name)
    seen = []
    real = manifold.phi_scaled
    monkeypatch.setattr(manifold, "phi_scaled", lambda m, x: seen.append(x) or real(m, x))
    rep = factor_check(model, factor, box, samples=samples, seed=seed)
    want = _oracle_factor_zero_points(model, factor, box, samples, seed)
    assert rep.zero_set_count == len(want)  # none for x4^2 + beta1 > 0
    assert [np.ascontiguousarray(x.T).tobytes() for x in seen] == \
        ([want.tobytes()] if len(want) else [])


def test_phi_magnitude_equals_gram_schmidt_product(chua3):
    # |phi| equals the product of the orthogonal frame norms on real stacks
    from flowcurv import det_norm_product_residual
    from flowcurv.jets import derivative_stack
    rng = np.random.default_rng(6)
    for _ in range(50):
        x = rng.uniform(-2.5, 2.5, 3)
        stack = derivative_stack(chua3, x, 3)
        assert det_norm_product_residual(stack.derivs) <= 1e-10


def test_gear_closed_form_quotient_finite_and_smooth(gear):
    # phi / ((x1^2+x2^2)(x1^2+x2^2-x3)(x4^2+beta1)) = Q is finite and smooth
    # away from the factors' zero sets
    beta1 = gear.params["beta1"]

    def quotient(x):
        f = (x[0] ** 2 + x[1] ** 2) * (x[0] ** 2 + x[1] ** 2 - x[2]) * (x[3] ** 2 + beta1)
        return float(phi(gear, x)) / f

    rng = np.random.default_rng(7)
    count = 0
    while count < 50:
        x = rng.uniform([-2, -2, -2, -5, -2], [2, 2, 2, 5, 2])
        if x[0] ** 2 + x[1] ** 2 < 0.25 or abs(x[0] ** 2 + x[1] ** 2 - x[2]) < 0.25:
            continue
        q = quotient(x)
        assert np.isfinite(q)
        # continuity probe: nearby point, nearby quotient
        h = 1e-6
        q2 = quotient(x + h)
        assert abs(q2 - q) <= 1e-3 * (1 + abs(q))
        count += 1


# -- Lie derivative vs finite differences ----------------------------------------

@pytest.mark.parametrize("name", ["chua4-cubic", "magnetoconvection5", "gear5"])
def test_lie_phi_matches_time_derivative(name):
    errors = lie_fd_residuals(get_model(name), count=20)
    assert len(errors) >= 10
    assert max(errors) <= 1e-4


def test_phi_scaled_is_nan_where_the_stack_overflows(gear):
    # gear5's stack overflows at x1 = 1e200: phi is NaN, and so is every
    # Hadamard-scaled value, never 0.0 (which would put the state on the manifold)
    from flowcurv.spectral import hypercoplanarity_check
    x = np.array([1e200, 1.0, 0.0, 0.0, 0.0])
    batch = np.stack([x, np.full(5, 0.5)], axis=1)
    with np.errstate(all="ignore"):
        assert math.isnan(phi(gear, x))
        assert math.isnan(phi_scaled(gear, x))
        assert math.isnan(hypercoplanarity_check(gear, x).scaled_value)
        assert math.isnan(hypercoplanarity_check(gear, x).agreement_residual)
        scaled = phi_scaled(gear, batch)
        assert math.isnan(scaled[0]) and 0.0 < scaled[1] < 1.0
        np.testing.assert_array_equal(hypercoplanarity_check(gear, batch).scaled_value, scaled)
    # a zero derivative (a fixed point) still gives 0.0
    assert phi_scaled(gear, np.zeros(5)) == 0.0


def test_double_stack_paths_overflow_without_warnings(gear):
    # every path on the double-precision stack gives its NaN at the state
    # where gear5's stack overflows, single or batched, without a numpy
    # warning, as `manifold_sample` on its longdouble stack does
    from flowcurv import derivative_stack
    from flowcurv.spectral import hypercoplanarity_check
    x = np.array([1e200, 1.0, 0.0, 0.0, 0.0])
    batch = np.stack([x, np.full(5, 0.5)], axis=1)
    paths = (phi, lie_phi, phi_scaled,
             lambda model, s: hypercoplanarity_check(model, s).agreement_residual,
             lambda model, s: manifold_sample(model, s).phi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for state in (x, batch):
            assert not np.isfinite(derivative_stack(gear, state, 5).derivs).all()
            for path in paths:
                values = np.atleast_1d(path(gear, state))
                assert math.isnan(values[0]) and np.isfinite(values[1:]).all()


@pytest.mark.parametrize("name", ["chua3-pwl", "chua4-pwl", "chua5-pwl", "chua4-cubic",
                                  "chua5-cubic", "magnetoconvection5", "gear5"])
def test_phi_scaled_is_the_hypercoplanarity_scaled_value(name):
    from flowcurv.spectral import hypercoplanarity_check
    model = get_model(name)
    x = np.random.default_rng(12).uniform(-3.0, 3.0, (model.dim, 1000))
    scaled = phi_scaled(model, x)
    assert np.isfinite(scaled).all()
    np.testing.assert_array_equal(scaled, hypercoplanarity_check(model, x).scaled_value)
    for point in x.T[:20]:
        assert phi_scaled(model, point) == hypercoplanarity_check(model, point).scaled_value
