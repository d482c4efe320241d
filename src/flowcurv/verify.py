"""Residual verification suites behind the `verify` CLI command.

Each check returns the worst observed residual against its threshold; the
suites cover the determinant identities, the derivative-stack recurrence,
the Darboux trace identity, the hyperplane factorization cross-check, the
coplanarity/orthogonality equivalence, and the model-specific structure
(first integral and cofactor for gear5, on/off singular-approximation
contrast for the slow-fast models).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import expr as ex
from . import geometry, manifold, models, spectral
from .jets import derivative_stack

__all__ = ["CheckResult", "verify_model", "run_suite"]

# Checks where the pinned finite-difference step cannot resolve the model's
# fast frequencies are skipped rather than silently failed.
_FD_TIME_STEP = 1e-5
_LIE_FD_MODELS = {"chua4-cubic", "magnetoconvection5", "gear5"}


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    threshold: float
    passed: bool
    note: str = ""


def _result(name, residual, threshold, note="", larger_is_better=False):
    passed = residual >= threshold if larger_is_better else residual <= threshold
    return CheckResult(name=name, residual=float(residual), threshold=threshold,
                       passed=bool(passed), note=note)


def _in_region_points(model, count, rng):
    """Random points avoiding PWL breakpoints (mixture over the regions)."""
    points = []
    labels = ("pos", "neg", "mid") if model.pwl_args else (None,)
    k = 0
    while len(points) < count:
        region = labels[k % len(labels)]
        k += 1
        if region is None:
            points.append(rng.uniform(-2.0, 2.0, model.dim))
            continue
        lo, hi = models.region_box(model, region)
        x = rng.uniform(lo, hi)
        if model.classify(x) == region:
            points.append(x)
    return points


def _identity_checks(model, rng, instances=200):
    n = model.dim
    worst = {"norm_product": 0.0, "multiplicativity": 0.0, "trace": 0.0}
    for _ in range(instances):
        stack = rng.standard_normal((n, n))
        J = rng.standard_normal((n, n))
        worst["norm_product"] = max(worst["norm_product"],
                                    geometry.det_norm_product_residual(stack))
        worst["multiplicativity"] = max(worst["multiplicativity"],
                                        geometry.det_multiplicativity_residual(J, stack))
        worst["trace"] = max(worst["trace"],
                             geometry.trace_expansion_residual(J, stack))
    return [
        _result("identity |det| = prod |u_i|", worst["norm_product"], 1e-10),
        _result("identity det(J a_k) = det(J) det(a)", worst["multiplicativity"], 1e-10),
        _result("identity sum det = Tr(J) det", worst["trace"], 1e-10),
    ]


def _fixed_point_checks(model, fps):
    if not fps:
        return [_result("fixed-point membership phi = 0", 0.0, 0.0,
                        note="no fixed points")]
    worst = max(abs(float(manifold.phi(model, fp.location, region=fp.region)))
                for fp in fps)
    return [_result("fixed-point membership phi = 0", worst, 0.0,
                    note=f"{len(fps)} points, exact zero required")]


def _stack_checks(model, rng, count=100):
    if not model.pwl_args:
        return []
    worst = 0.0
    for x in _in_region_points(model, count, rng):
        st = derivative_stack(model, x, model.dim + 1)
        J = model.jacobian(x, region=st.region)
        for k in range(model.dim):
            num = np.linalg.norm(st.derivs[k + 1] - J @ st.derivs[k])
            den = np.linalg.norm(st.derivs[k + 1])
            if den > 0:
                worst = max(worst, num / den)
    return [_result("derivative stack d_{k+1} = J d_k", worst, 1e-12)]


def _darboux_checks(model, rng, count=500):
    if not model.pwl_args:
        return []
    worst = max(float(manifold.darboux_residual(model, x))
                for x in _in_region_points(model, count, rng))
    return [_result("Darboux residual L_V phi = Tr(J) phi", worst, 1e-8)]


def _plane_checks(model, fps, rng):
    if not model.pwl_args:
        return []
    out = []
    for fp in [fp for fp in fps if fp.region in ("pos", "neg")]:
        try:
            plane = spectral.tls_hyperplane(model, fp)
        except spectral.SpectralError as err:
            out.append(_result(f"TLS plane at {fp.region}", float("inf"), 0.0,
                               note=str(err)))
            continue
        side = "+" if fp.location[0] < 0 else "-"
        summary = spectral.darboux_check_plane(model, plane, samples=200,
                                               seed=int(rng.integers(2**31)))
        out.append(_result(f"plane Darboux L_V Pi = lambda Pi ({side})",
                           summary["max"], 1e-8))
        on, off = _plane_factor_samples(model, plane, rng, count=200)
        med_off = float(np.median(off))
        ratio = max(on) / med_off if med_off > 0 else float("inf")
        out.append(_result(f"phi factors through plane ({side})", ratio, 1e-6,
                           note="max |phi| on-plane / median off-plane"))
        # coplanarity and orthogonality vanish together on the plane
        worst = 0.0
        for x in _plane_points(model, plane, rng, 50):
            res = spectral.coplanarity_equivalence(model, x)
            worst = max(worst, res["r1"] / res["scale1"], res["r2"] / res["scale2"])
        out.append(_result(f"coplanarity = orthogonality on plane ({side})",
                           worst, 1e-6))
        spec = spectral.spectrum_at(model, fp.location, region=fp.region)
        i = spec.dominant_real()
        slow = spectral._realized_slow_basis(spec, i)
        w = geometry.wedge(slow)
        t_y = np.real(spec.left_eigenvectors[:, i])
        defect = 1.0 - abs(w @ t_y) / (np.linalg.norm(w) * np.linalg.norm(t_y))
        out.append(_result(f"slow wedge parallel to fast left vector ({side})",
                           defect, 1e-8))
    return out


def _plane_points(model, plane, rng, count):
    """Random points on the plane inside its fixed point's region."""
    region = plane.base_point.region
    lo, hi = models.region_box(model, region, center=plane.base_point.location)
    solve_idx = int(np.argmax(np.abs(plane.normal)))
    pts = []
    attempts = 0
    while len(pts) < count and attempts < 100 * count:
        attempts += 1
        x = rng.uniform(lo, hi)
        x[solve_idx] = 0.0
        x[solve_idx] = -(plane.normal @ x + plane.offset) / plane.normal[solve_idx]
        if model.classify(x) == region:
            pts.append(x)
    return pts


def _plane_factor_samples(model, plane, rng, count=200):
    on, off = [], []
    for x in _plane_points(model, plane, rng, count):
        on.append(abs(float(manifold.phi(model, x))))
        x_off = x + 0.1 * plane.normal
        if model.classify(x_off) == plane.base_point.region:
            off.append(abs(float(manifold.phi(model, x_off))))
    if not off:
        off = [float("nan")]
    return on, off


def _hypercoplanarity_checks(model, rng, count=50):
    worst = 0.0
    for x in _in_region_points(model, count, rng):
        res = spectral.hypercoplanarity_check(model, x)
        worst = max(worst, res.agreement_residual)
    return [_result("phi det route = wedge route", worst, 1e-12,
                    note="Hadamard-scaled")]


def _eigen_checks(model, fps):
    out = []
    worst = 0.0
    for fp in fps:
        try:
            spec = spectral.spectrum_at(model, fp.location, region=fp.region)
        except spectral.SpectralError as err:
            return [_result("eigen residuals at fixed points", float("inf"), 1e-8,
                            note=str(err))]
        J = spec.jacobian
        for i, lam in enumerate(spec.eigenvalues):
            v = spec.right_eigenvectors[:, i]
            w = spec.left_eigenvectors[:, i]
            scale = (abs(lam) + 1.0)
            worst = max(worst,
                        np.linalg.norm(J @ v - lam * v) / (scale * np.linalg.norm(v)),
                        np.linalg.norm(J.T @ w - lam * w) / (scale * np.linalg.norm(w)))
    if fps:
        out.append(_result("eigen residuals at fixed points", worst, 1e-8))
    return out


def lie_fd_residuals(model, count=20, dt=_FD_TIME_STEP, seed=3, horizon=None):
    """Relative errors of lie_phi against a centered FD of phi in time.

    States at t +- dt come from high-accuracy forward and reversed-field
    integration, so the oracle never touches the jet machinery under test.
    """
    from .integrate import integrate

    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.5, 0.5, model.dim)
    if model.name == "gear5":
        # window between the L-rate transient (dead after ~5/L) and the
        # finite-time x4 blow-up near t = pi/(2 sqrt(beta1))
        horizon, t_min = 0.008, 0.001
    else:
        horizon, t_min = horizon or 2.0, 0.0
    traj = integrate(model, x, horizon, rel_tol=1e-12, abs_tol=1e-14)
    reversed_model = _reversed(model)
    first = int(np.searchsorted(traj.times, t_min))
    errors = []
    for k in rng.integers(max(1, first), len(traj.times) - 1, size=count * 4):
        x0 = traj.states[k]
        plus = integrate(model, x0, dt, rel_tol=1e-13, abs_tol=1e-16).states[-1]
        minus = integrate(reversed_model, x0, dt, rel_tol=1e-13, abs_tol=1e-16).states[-1]
        fd = (float(manifold.phi(model, plus)) - float(manifold.phi(model, minus))) / (2 * dt)
        lie = float(manifold.lie_phi(model, x0))
        if lie == 0.0:
            continue
        errors.append(abs(fd - lie) / abs(lie))
        if len(errors) >= count:
            break
    return errors


def _lie_fd_checks(model, rng, count=20):
    if model.pwl_args or model.name not in _LIE_FD_MODELS:
        return []
    errors = lie_fd_residuals(model, count=count)
    worst = max(errors) if errors else 0.0
    return [_result("L_V phi = d phi/dt (centered FD)", worst, 1e-4,
                    note=f"dt = {_FD_TIME_STEP:g}, {len(errors)} points")]


def _reversed(model):
    """The model with its vector field negated (for backward FD samples)."""
    exprs = tuple(ex.Neg(e) for e in model.rhs_exprs)
    rhs, jacobian, jac_exprs = models._build_evaluators(model.dim, exprs)
    return replace(model, name=model.name + "-reversed", rhs=rhs, jacobian=jacobian,
                   rhs_exprs=exprs, jac_exprs=jac_exprs)


def _slowfast_checks(model, seed=0):
    if model.slowfast_defaults is None:
        return []
    split = manifold.default_split(model)
    fast = split.fast_indices[0]
    on, off = [], []
    for x in manifold._singular_points(model, split, 60, np.random.default_rng(seed)):
        on.append(float(manifold.darboux_residual(model, x)))
        x_off = x.copy()
        x_off[fast] += 0.5
        off.append(float(manifold.darboux_residual(model, x_off)))
    if not on:
        return [_result("singular-approximation Darboux contrast", 0.0, 10.0,
                        note="no constraint solutions found", larger_is_better=True)]
    ratio = float(np.median(off) / np.median(on)) if np.median(on) > 0 else float("inf")
    return [_result("singular-approximation Darboux contrast", ratio, 10.0,
                    note="median off-set / on-set residual", larger_is_better=True)]


def _gear_checks(model, rng):
    out = []
    # first integral: L_V(x1^2 + x2^2) identically zero
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-2, 2, 5)
        v = model.velocity(x)
        worst = max(worst, abs(2 * x[0] * v[0] + 2 * x[1] * v[1]))
    out.append(_result("first integral d(x1^2+x2^2)/dt = 0", worst, 1e-12))

    box = [(-2, 2)] * 3 + [(-5, 5), (-2, 2)]
    product = "(x1^2 + x2^2)*(x1^2 + x2^2 - x3)*(x4^2 + beta1)"
    rep = manifold.factor_check(model, product, box, samples=150, seed=7)
    L = model.params["L"]
    gold = {"1": -L, "x4": 2.0}
    err = 0.0
    for name, coeff in zip(rep.cofactor_basis, rep.cofactor_coeffs):
        target = gold.get(name, 0.0)
        err = max(err, abs(coeff - target) / max(1.0, abs(target)))
    out.append(_result("cofactor of product factor = -(L - 2 x4)", err, 1e-3))
    out.append(_result("cofactor polynomial fit residual",
                       rep.cofactor_fit_residual, 1e-6))
    phis = []
    for factor in ("x1^2 + x2^2", "x1^2 + x2^2 - x3", "x4^2 + beta1"):
        r = manifold.factor_check(model, factor, box, samples=60, seed=11)
        if r.phi_scaled_max is not None:
            phis.append(r.phi_scaled_max)
    out.append(_result("phi vanishes on factor zero sets",
                       max(phis) if phis else 0.0, 1e-6))
    return out


def verify_model(model, seed=0):
    """Run every applicable residual suite for one model."""
    rng = np.random.default_rng(seed)
    fps = models.fixed_points(model)
    results = []
    results += _identity_checks(model, rng)
    results += _fixed_point_checks(model, fps)
    results += _hypercoplanarity_checks(model, rng)
    results += _eigen_checks(model, fps)
    results += _stack_checks(model, rng)
    results += _darboux_checks(model, rng)
    results += _plane_checks(model, fps, rng)
    results += _lie_fd_checks(model, rng)
    results += _slowfast_checks(model)
    if model.name == "gear5":
        results += _gear_checks(model, rng)
    return results


def run_suite(model_names, seed=0):
    """Verify several models; returns {name: [CheckResult, ...]}."""
    out = {}
    for name in model_names:
        out[name] = verify_model(models.get_model(name), seed=seed)
    return out
