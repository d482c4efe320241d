"""phi, its Lie derivative, Darboux residuals, zero sets, slow/fast checks."""

import numpy as np
import pytest

from flowcurv import (darboux_residual, default_split, factor_check,
                      fixed_points, get_model, gsp_order0_residual, integrate,
                      lie_phi, load_model, manifold_sample, phi, phi_scaled,
                      zero_crossings_on_trajectory, zero_set_grid)
from flowcurv.manifold import SlowFastSplit
from flowcurv.verify import lie_fd_residuals

from conftest import in_region_points

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
    on_sheet = 0
    for p in zs.points:
        if abs(p[0] ** 2 + p[1] ** 2 - p[2]) <= 5e-3 * (1 + p[2]):
            on_sheet += 1
        else:
            assert np.hypot(p[0], p[1]) <= 0.3  # degenerate x1 = x2 = 0 set
    assert on_sheet >= 0.8 * len(zs)
    # grid nodes on the x1 = x2 = 0 line are exact zeros, reported once each
    zero_nodes = [p for p, v in zip(zs.points, zs.phi_values) if v == 0.0]
    assert zs.metadata["exact_zero_nodes"] == len(zero_nodes) == 16
    for p in zero_nodes:
        assert p[0] == 0.0 and p[1] == 0.0


def _reference_bisect_edge(eval_phi, p_lo, p_hi, f_lo, f_hi, tol_abs, tol_rel,
                           max_iter=90):
    """Single-edge scalar bisection, the rule lockstep refinement must keep."""
    scale = max(abs(f_lo), abs(f_hi))
    target = tol_abs + tol_rel * scale
    lo, hi = 0.0, 1.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        point = p_lo + mid * (p_hi - p_lo)
        f_mid = eval_phi(point)
        if not np.isfinite(f_mid):
            return None, None
        if abs(f_mid) <= target:
            return point, f_mid
        if (f_mid > 0) == (f_lo > 0):
            lo = mid
        else:
            hi = mid
        if hi - lo <= np.finfo(float).eps:
            break
    point = p_lo + 0.5 * (lo + hi) * (p_hi - p_lo)
    return point, eval_phi(point)


def _reference_zero_set(model, axes, slice_values, tol_rel=1e-9):
    """Edge points of a grid, each edge bisected alone with scalar phi."""
    items = sorted(axes.items())
    grids = [np.linspace(lo, hi, count) for _, (lo, hi, count) in items]
    mesh = np.meshgrid(*grids, indexing="ij")
    states = np.empty((model.dim, mesh[0].size))
    for i in range(model.dim):
        states[i] = slice_values.get(i, 0.0)
    for (idx, _), m in zip(items, mesh):
        states[idx] = m.ravel()
    values = phi(model, states).reshape(mesh[0].shape)
    points, phis = [], []
    for axis in range(values.ndim):
        sl_lo = [slice(None)] * values.ndim
        sl_hi = [slice(None)] * values.ndim
        sl_lo[axis] = slice(0, -1)
        sl_hi[axis] = slice(1, None)
        f_lo = values[tuple(sl_lo)]
        f_hi = values[tuple(sl_hi)]
        for flat in np.flatnonzero(np.sign(f_lo) * np.sign(f_hi) < 0):
            i_lo = np.unravel_index(flat, f_lo.shape)
            i_hi = tuple(k + (a == axis) for a, k in enumerate(i_lo))
            p_lo = np.array([slice_values.get(i, 0.0) for i in range(model.dim)])
            p_hi = p_lo.copy()
            for k, (coord, _) in enumerate(items):
                p_lo[coord] = grids[k][i_lo[k]]
                p_hi[coord] = grids[k][i_hi[k]]
            point, f_mid = _reference_bisect_edge(
                lambda x: float(phi(model, x)), p_lo, p_hi,
                values[i_lo], values[i_hi], 0.0, tol_rel)
            if point is not None:
                points.append(point)
                phis.append(f_mid)
    order = sorted(range(len(points)), key=lambda k: tuple(points[k]))
    return np.array([points[k] for k in order]), np.array([phis[k] for k in order])


@pytest.mark.parametrize("name, axes, slice_values", [
    ("chua4-cubic", {0: (-2.0, 2.0, 10), 1: (-2.0, 2.0, 10), 2: (-2.0, 2.0, 10)},
     {3: 0.0}),
    ("gear5", {0: (-1.5, 1.5, 6), 1: (-1.5, 1.5, 6), 2: (0.05, 3.0, 8)},
     {3: 0.0, 4: 0.0}),
])
def test_zero_set_grid_matches_scalar_bisection(name, axes, slice_values):
    model = get_model(name)
    zs = zero_set_grid(model, axes, slice_values)
    points, phis = _reference_zero_set(model, axes, slice_values)
    assert len(zs) > 50 and zs.metadata["exact_zero_nodes"] == 0
    assert np.array_equal(zs.points, points)
    assert np.array_equal(zs.phi_values, phis)


def test_zero_set_grid_drops_pwl_jumps(chua3):
    # sign changes of phi across |x1| = 1 are jumps: bisection runs out of
    # floats there without meeting the tolerance, and the point is dropped
    zs = zero_set_grid(chua3, {0: (-3.0, 3.0, 60), 1: (-1.0, 1.0, 60)}, {2: 0.0})
    assert len(zs) > 100
    assert zs.metadata["dropped_jumps"] == 60
    assert np.all(np.abs(np.abs(zs.points[:, 0]) - 1.0) > 1e-9)
    assert max(phi_scaled(chua3, p) for p in zs.points) <= 1e-9


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
    assert meta["unconverged"] >= meta["dropped_jumps"]
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
        for name in ("tol_rel", "tol_abs"):
            with pytest.raises(ValueError, match="nonnegative"):
                zero_set_grid(chua3, {0: (-3, 3, 5), 1: (-1, 1, 5)}, **{name: bad})


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


def test_zero_crossings_fixed_point_degenerate(chua3):
    fp = fixed_points(chua3)[2]
    traj = integrate(chua3, fp.location, 1.0, rel_tol=1e-9, abs_tol=1e-12)
    zs = zero_crossings_on_trajectory(chua3, traj)
    assert zs.degenerate
    assert len(zs) == 0


def test_zero_crossings_empty_on_sign_definite_arc(chua3):
    traj = integrate(chua3, [2.0, 0.0, 0.0], 0.01, rel_tol=1e-9, abs_tol=1e-12)
    zs = zero_crossings_on_trajectory(chua3, traj)
    assert len(zs) == 0 and not zs.degenerate


# -- slow/fast ------------------------------------------------------------------

def test_gsp_toy_observed_order_epsilon():
    # eps xdot = -x + z, zdot = -z: phi on the singular set x = z scales O(eps)
    def toy(eps):
        return load_model({
            "name": "toy", "dim": 2, "params": {"k": 1.0 / eps},
            "rhs": ["k*(x2 - x1)", "-x2"],
        })

    epsilons = np.array([1e-2, 1e-3, 1e-4])
    values = []
    for eps in epsilons:
        split = SlowFastSplit(fast_indices=(0,), epsilon=eps, box=((0.5, 1.5),))
        summary = gsp_order0_residual(toy(eps), split, samples=40, seed=0)
        assert summary.n_solved == 40
        values.append(summary.mean_scaled)
    slopes = np.diff(np.log(values)) / np.diff(np.log(epsilons))
    assert np.all(np.abs(slopes - 1.0) < 0.2)  # observed order O(eps)


def test_gsp_chua4_cubic_stiffness_scaling():
    # scaling up the fast rate alpha1 shrinks the scaled residual monotonically
    means = []
    for factor in (1.0, 10.0, 100.0):
        model = get_model("chua4-cubic", alpha1=2.1429 * factor)
        split = default_split(model)
        summary = gsp_order0_residual(model, split, samples=40, seed=1)
        assert summary.n_solved > 30
        means.append(summary.mean_scaled)
    assert means[0] > means[1] > means[2]


@pytest.mark.parametrize("name", ["chua4-cubic", "chua5-cubic", "magnetoconvection5"])
def test_singular_points_solve_the_fast_equations(name):
    from flowcurv.manifold import _singular_points
    model = get_model(name)
    split = default_split(model)
    points = list(_singular_points(model, split, 30, np.random.default_rng(1)))
    summary = gsp_order0_residual(model, split, samples=30, seed=1)
    assert summary.n_solved == len(points) > 20
    assert summary.n_skipped == 30 - len(points)
    for x in points:
        fast = model.velocity(x)[list(split.fast_indices)]
        assert np.linalg.norm(fast) <= 1e-12 * (1.0 + np.linalg.norm(x))


def test_gsp_zero_samples():
    model = get_model("chua4-cubic")
    summary = gsp_order0_residual(model, default_split(model), samples=0)
    assert summary.n_requested == 0 and summary.n_solved == 0


def test_default_split_magneto_centered_on_equilibrium():
    model = get_model("magnetoconvection5")
    split = default_split(model)
    assert split.fast_indices == (0,)
    assert split.box_center is not None and split.box_center.shape == (4,)
    with pytest.raises(ValueError, match="positive"):
        SlowFastSplit(fast_indices=(0,), epsilon=0.0, box=((0, 1),))


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
