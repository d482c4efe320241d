"""Residual verification suites behind the `verify` CLI command.

Each check returns the worst observed residual against its threshold; the
suites cover the determinant identities, the derivative-stack recurrence,
the Darboux trace identity, the hyperplane factorization cross-check, the
coplanarity/orthogonality equivalence, and the model-specific structure
(first integral and cofactor for gear5, on/off singular-approximation
contrast for the slow-fast models).

Each check draws its sample states in array rounds that give the states of
one-at-a-time draws (`models.region_samples`; several pwl terms are sampled
by the first one's branch), then evaluates them in one batched call; batched
and single-point evaluation agree bit for bit.  A non-finite sample residual
(NaN or inf) is the check's reported residual, and the check fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, manifold, models, spectral
from .integrate import integrate, take_step
from .jets import derivative_stack

__all__ = ["CheckResult", "verify_model"]

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
    larger_is_better: bool = False

    @property
    def margin_dec(self):
        """Decades between residual and threshold, positive on the passing side.

        None unless both are positive and finite.
        """
        if not (0.0 < self.residual < math.inf and 0.0 < self.threshold < math.inf):
            return None
        margin = math.log10(self.threshold / self.residual)
        return -margin if self.larger_is_better else margin


def _result(name, residual, threshold, note="", larger_is_better=False):
    passed = residual >= threshold if larger_is_better else residual <= threshold
    return CheckResult(name=name, residual=float(residual), threshold=threshold,
                       passed=bool(passed), note=note, larger_is_better=larger_is_better)


def _worst(residuals):
    """Largest sample residual (0.0 for none); NaN or inf when a sample is."""
    return float(np.max(residuals, initial=0.0))


def _in_region_points(model, count, rng):
    """Random points avoiding PWL breakpoints (mixture over the regions), (n, count)."""
    labels = ("pos", "neg", "mid") if model.pwl_args else (None,)
    boxes = [models.region_box(model, r) for r in labels]
    return models.region_samples(model, rng, count, boxes, labels)[0]


def _identity_checks(model, rng, instances=200):
    n = model.dim
    draws = rng.standard_normal((instances, 2, n, n))  # stack, then J: one draw at a time
    stack, J = draws[:, 0], draws[:, 1]
    return [
        _result("identity |det| = prod |u_i|",
                _worst(geometry.det_norm_product_residual(stack)), 1e-10),
        _result("identity det(J a_k) = det(J) det(a)",
                _worst(geometry.det_multiplicativity_residual(J, stack)), 1e-10),
        _result("identity sum det = Tr(J) det",
                _worst(geometry.trace_expansion_residual(J, stack)), 1e-10),
    ]


def _fixed_point_checks(model, fps):
    if not fps:
        return [_result("fixed-point membership phi = 0", 0.0, 0.0,
                        note="no fixed points")]
    worst = _worst([abs(float(manifold.phi(model, fp.location, region=fp.region)))
                    for fp in fps])
    return [_result("fixed-point membership phi = 0", worst, 0.0,
                    note=f"{len(fps)} points, exact zero required")]


def _stack_checks(model, rng, count=100):
    if not model.pwl_args:
        return []
    st = derivative_stack(model, _in_region_points(model, count, rng), model.dim + 1)
    # contiguous (npts, ...) layouts, so each J d_k and norm is the BLAS
    # call a single point makes
    d = np.ascontiguousarray(np.moveaxis(st.derivs, -1, 0))
    J = np.ascontiguousarray(np.moveaxis(model.jacobian(st.point, region=st.region), -1, 0))
    residuals = []
    for k in range(model.dim):
        num = geometry.vecnorm(d[:, k + 1] - (J @ d[:, k, :, None])[..., 0])
        den = geometry.vecnorm(d[:, k + 1])
        residuals.append(num[den != 0.0] / den[den != 0.0])
    return [_result("derivative stack d_{k+1} = J d_k",
                    _worst(np.concatenate(residuals)), 1e-12)]


def _darboux_checks(model, rng, count=500):
    if not model.pwl_args:
        return []
    residuals = manifold.darboux_residual(model, _in_region_points(model, count, rng))
    return [_result("Darboux residual L_V phi = Tr(J) phi", _worst(residuals), 1e-8)]


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
        name = f"phi factors through plane ({side})"
        on, off = _plane_factor_samples(model, plane, rng, count=200)
        med_off = float(np.median(off)) if off.size else float("nan")
        ratio = float(np.max(on)) / med_off if med_off > 0 else float("inf")
        out.append(_result(name, ratio, 1e-6, note="max |phi| on-plane / median off-plane")
                   if on.size else _unsampled(name, 1e-6))
        # coplanarity and orthogonality vanish together on the plane
        name = f"coplanarity = orthogonality on plane ({side})"
        x = _plane_points(model, plane, rng, 50)
        res = spectral.coplanarity_equivalence(model, x)
        worst = _worst(np.concatenate([res["r1"] / res["scale1"],
                                       res["r2"] / res["scale2"]]))
        out.append(_result(name, worst, 1e-6) if x.shape[1] else _unsampled(name, 1e-6))
        res = spectral.coplanarity_equivalence(model, fp.location, region=fp.region)
        out.append(_result(f"slow wedge parallel to fast left vector ({side})",
                           res["parallelism_defect"], 1e-8))
    return out


def _unsampled(name, threshold):
    """A failed check that has no residual: no state was drawn in its region."""
    return CheckResult(name, float("nan"), threshold, False, note="no plane sample in region")


def _plane_points(model, plane, rng, count):
    """Random points on the plane inside its fixed point's region, (n, npts): box
    draws solved for the largest normal coordinate, at most 100 * count."""
    region = plane.base_point.region
    box = models.region_box(model, region, center=plane.base_point.location)
    s = int(np.argmax(np.abs(plane.normal)))

    def project(x):  # contiguous rows, so each dot is the single-point one
        x[:, s] = 0.0
        x[:, s] = -(geometry.vecdot(x, plane.normal) + plane.offset) / plane.normal[s]
        return x

    return models.region_samples(model, rng, count, [box], (region,),
                                 max_draws=100 * count, project=project)[0]


def _plane_factor_samples(model, plane, rng, count=200):
    """|phi| on the plane, and off it by 0.1 along the normal within the region."""
    x = _plane_points(model, plane, rng, count)
    x_off = x + 0.1 * plane.normal[:, None]
    x_off = x_off[:, np.array([lab == plane.base_point.region
                               for lab in models.point_regions(model, x_off)], dtype=bool)]
    return np.abs(manifold.phi(model, x)), np.abs(manifold.phi(model, x_off))


def _hypercoplanarity_checks(model, rng, count=50):
    res = spectral.hypercoplanarity_check(model, _in_region_points(model, count, rng))
    return [_result("phi det route = wedge route", _worst(res.agreement_residual), 1e-12,
                    note="Hadamard-scaled")]


def _eigen_checks(model, fps):
    residuals = []
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
            residuals += [np.linalg.norm(J @ v - lam * v) / (scale * np.linalg.norm(v)),
                          np.linalg.norm(J.T @ w - lam * w) / (scale * np.linalg.norm(w))]
    if not fps:
        return []
    return [_result("eigen residuals at fixed points", _worst(residuals), 1e-8)]


def lie_fd_residuals(model, count=20):
    """Relative errors of lie_phi against a centered FD of phi in time.

    The states at t +- dt are one Dormand-Prince step each way (h = +-dt)
    from samples of one high-accuracy trajectory, so the oracle never
    touches the jet machinery under test.  A sample is kept only when both
    steps' error estimates meet rel 1e-13 / abs 1e-16; phi at both ends and
    lie_phi are evaluated in one batched call each, and the errors of the
    first `count` samples with lie_phi != 0 are returned.
    """
    dt = _FD_TIME_STEP
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.5, 0.5, model.dim)
    # gear5: a window between the L-rate transient (dead after ~5/L) and the
    # finite-time x4 blow-up near t = pi/(2 sqrt(beta1))
    horizon, t_min = (0.008, 0.001) if model.name == "gear5" else (2.0, 0.0)
    traj = integrate(model, x, horizon, rel_tol=1e-12, abs_tol=1e-14)
    first = int(np.searchsorted(traj.times, t_min))
    x0 = traj.states[rng.integers(max(1, first), len(traj.times) - 1, size=count * 4)]
    steps = [take_step(model, state, h, rel_tol=1e-13, abs_tol=1e-16)
             for state in x0 for h in (dt, -dt)]
    ends = np.array([state for state, _ in steps]).reshape(len(x0), 2, model.dim).T
    kept = np.array([norm <= 1.0 for _, norm in steps]).reshape(len(x0), 2).all(axis=1)
    plus, minus = ends[:, 0, kept], ends[:, 1, kept]
    fd = (manifold.phi(model, plus) - manifold.phi(model, minus)) / (2 * dt)
    lie = manifold.lie_phi(model, x0[kept].T)
    return (np.abs(fd - lie)[lie != 0.0] / np.abs(lie[lie != 0.0]))[:count].tolist()


def _lie_fd_checks(model, rng, count=20):
    if model.pwl_args or model.name not in _LIE_FD_MODELS:
        return []
    errors = lie_fd_residuals(model, count=count)
    return [_result("L_V phi = d phi/dt (centered FD)", _worst(errors), 1e-4,
                    note=f"dt = {_FD_TIME_STEP:g}, {len(errors)} points")]


def _slowfast_checks(model, seed=0):
    if model.slowfast_defaults is None:
        return []
    name = "singular-approximation Darboux contrast"
    split = manifold.default_split(model)
    x = manifold._singular_points(model, split, 60, np.random.default_rng(seed)).T
    if not x.size:
        return [_result(name, 0.0, 10.0, note="no constraint solutions found",
                        larger_is_better=True)]
    x_off = x.copy()
    x_off[split.fast_indices[0]] += 0.5
    on = manifold.darboux_residual(model, x)
    off = manifold.darboux_residual(model, x_off)
    worst = _worst(np.concatenate([on, off]))
    if not np.isfinite(worst):
        # an infinite ratio would pass this larger-is-better check
        return [CheckResult(name, worst, 10.0, False, note="non-finite sample residual",
                            larger_is_better=True)]
    ratio = float(np.median(off) / np.median(on)) if np.median(on) > 0 else float("inf")
    return [_result(name, ratio, 10.0, note="median off-set / on-set residual",
                    larger_is_better=True)]


def _gear_checks(model, rng):
    out = []
    # first integral: L_V(x1^2 + x2^2) identically zero
    x = rng.uniform(-2, 2, (100, 5)).T
    v = model.velocity(x)
    out.append(_result("first integral d(x1^2+x2^2)/dt = 0",
                       _worst(np.abs(2 * x[0] * v[0] + 2 * x[1] * v[1])), 1e-12))

    box = [(-2, 2)] * 3 + [(-5, 5), (-2, 2)]
    product = "(x1^2 + x2^2)*(x1^2 + x2^2 - x3)*(x4^2 + beta1)"
    rep = manifold.factor_check(model, product, box, samples=150, seed=7)
    L = model.params["L"]
    gold = {"1": -L, "x4": 2.0}
    err = _worst([abs(coeff - gold.get(name, 0.0)) / max(1.0, abs(gold.get(name, 0.0)))
                  for name, coeff in zip(rep.cofactor_basis, rep.cofactor_coeffs)])
    out.append(_result("cofactor of product factor = -(L - 2 x4)", err, 1e-3))
    out.append(_result("cofactor polynomial fit residual",
                       rep.cofactor_fit_residual, 1e-6))
    phis = []
    for factor in ("x1^2 + x2^2", "x1^2 + x2^2 - x3", "x4^2 + beta1"):
        r = manifold.factor_check(model, factor, box, samples=60, seed=11)
        if r.phi_scaled_max is not None:
            phis.append(r.phi_scaled_max)
    out.append(_result("phi vanishes on factor zero sets", _worst(phis), 1e-6))
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
