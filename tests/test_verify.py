"""verify's batched checks against per-point oracles; non-finite residuals; JSON."""

import json
import math
import struct

import numpy as np
import pytest

from flowcurv import geometry, get_model, load_model, manifold, models, spectral, verify
from flowcurv.cli import main
from flowcurv.jets import derivative_stack
from flowcurv.verify import CheckResult, verify_model

# ---------------------------------------------------------------------------
# Test-only copy of the per-point verify loops that the batched checks
# replaced: each sample is evaluated on its own, with the single-point
# expressions (`v @ w`, `np.linalg.norm`, Python `max`) the loops used.
# ---------------------------------------------------------------------------


def _old_result(name, residual, threshold, note="", larger_is_better=False):
    passed = residual >= threshold if larger_is_better else residual <= threshold
    return CheckResult(name=name, residual=float(residual), threshold=threshold,
                       passed=bool(passed), note=note)


def _old_in_region_points(model, count, rng):
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


def _old_wedge(vectors):
    a = np.asarray(vectors, dtype=float)
    k, n = a.shape
    cols = a.T
    w = np.empty(n)
    for i in range(n):
        w[i] = (-1.0) ** i * np.linalg.det(np.delete(cols, i, axis=0))
    return w


def _old_hypercoplanarity(model, x):
    n = model.dim
    stack = derivative_stack(model, x, n)
    value_det = float(geometry.det_scaled(stack.matrix()))
    value_wedge = float(stack.derivs[0] @ _old_wedge(stack.derivs[1:]))
    scale = float(np.prod(np.linalg.norm(stack.derivs, axis=1)))
    agreement = abs(value_det - value_wedge) / scale if scale > 0 else 0.0
    scaled = abs(value_det) / scale if scale > 0 else 0.0
    return value_det, value_wedge, agreement, scaled


def _old_coplanarity(model, x):
    spectrum = spectral.spectrum_at(model, x)
    i_fast = spectrum.dominant_real()
    slow = spectral._realized_slow_basis(spectrum, i_fast)
    v = model.velocity(x)
    w = _old_wedge(slow)
    t_y = np.real(spectrum.left_eigenvectors[:, i_fast])
    cosine = abs(w @ t_y) / (np.linalg.norm(w) * np.linalg.norm(t_y))
    return {"r1": abs(v @ w), "r2": abs(v @ t_y),
            "scale1": np.linalg.norm(v) * np.linalg.norm(w),
            "scale2": np.linalg.norm(v) * np.linalg.norm(t_y),
            "parallelism_defect": 1.0 - cosine}


def _old_darboux_check_plane_max(model, plane, samples, seed):
    rng = np.random.default_rng(seed)
    region = plane.base_point.region
    lo, hi = models.region_box(model, region, center=plane.base_point.location)
    residuals, attempts = [], 0
    lam = plane.eigenvalue
    while len(residuals) < samples and attempts < 50 * samples:
        attempts += 1
        x = rng.uniform(lo, hi)
        if model.regions is not None and model.classify(x) != region:
            continue
        v = model.velocity(x)
        pi = plane.normal @ x + plane.offset
        scale = 1.0 + abs(lam * pi) + np.linalg.norm(v)
        residuals.append(abs(plane.normal @ v - lam * pi) / scale)
    return float(np.array(residuals).max())


def _old_plane_points(model, plane, rng, count):
    region = plane.base_point.region
    lo, hi = models.region_box(model, region, center=plane.base_point.location)
    solve_idx = int(np.argmax(np.abs(plane.normal)))
    pts, attempts = [], 0
    while len(pts) < count and attempts < 100 * count:
        attempts += 1
        x = rng.uniform(lo, hi)
        x[solve_idx] = 0.0
        x[solve_idx] = -(plane.normal @ x + plane.offset) / plane.normal[solve_idx]
        if model.classify(x) == region:
            pts.append(x)
    return pts


def _old_plane_checks(model, fps, rng):
    out = []
    for fp in [fp for fp in fps if fp.region in ("pos", "neg")]:
        plane = spectral.tls_hyperplane(model, fp)
        side = "+" if fp.location[0] < 0 else "-"
        worst = _old_darboux_check_plane_max(model, plane, 200, int(rng.integers(2**31)))
        out.append(_old_result(f"plane Darboux L_V Pi = lambda Pi ({side})", worst, 1e-8))
        on, off = [], []
        for x in _old_plane_points(model, plane, rng, 200):
            on.append(abs(float(manifold.phi(model, x))))
            x_off = x + 0.1 * plane.normal
            if model.classify(x_off) == fp.region:
                off.append(abs(float(manifold.phi(model, x_off))))
        med_off = float(np.median(off or [float("nan")]))
        ratio = max(on) / med_off if med_off > 0 else float("inf")
        out.append(_old_result(f"phi factors through plane ({side})", ratio, 1e-6,
                               note="max |phi| on-plane / median off-plane"))
        worst = 0.0
        for x in _old_plane_points(model, plane, rng, 50):
            res = _old_coplanarity(model, x)
            worst = max(worst, res["r1"] / res["scale1"], res["r2"] / res["scale2"])
        out.append(_old_result(f"coplanarity = orthogonality on plane ({side})", worst, 1e-6))
        spec = spectral.spectrum_at(model, fp.location, region=fp.region)
        i = spec.dominant_real()
        w = _old_wedge(spectral._realized_slow_basis(spec, i))
        t_y = np.real(spec.left_eigenvectors[:, i])
        defect = 1.0 - abs(w @ t_y) / (np.linalg.norm(w) * np.linalg.norm(t_y))
        out.append(_old_result(f"slow wedge parallel to fast left vector ({side})",
                               defect, 1e-8))
    return out


def _old_stack_checks(model, rng):
    worst = 0.0
    for x in _old_in_region_points(model, 100, rng):
        st = derivative_stack(model, x, model.dim + 1)
        J = model.jacobian(x, region=st.region)
        for k in range(model.dim):
            num = np.linalg.norm(st.derivs[k + 1] - J @ st.derivs[k])
            den = np.linalg.norm(st.derivs[k + 1])
            if den > 0:
                worst = max(worst, num / den)
    return [_old_result("derivative stack d_{k+1} = J d_k", worst, 1e-12)]


def _old_slowfast_checks(model):
    split = manifold.default_split(model)
    fast = split.fast_indices[0]
    on, off = [], []
    for x in manifold._singular_points(model, split, 60, np.random.default_rng(0)):
        on.append(float(manifold.darboux_residual(model, x)))
        x_off = x.copy()
        x_off[fast] += 0.5
        off.append(float(manifold.darboux_residual(model, x_off)))
    ratio = float(np.median(off) / np.median(on)) if np.median(on) > 0 else float("inf")
    return [_old_result("singular-approximation Darboux contrast", ratio, 10.0,
                        note="median off-set / on-set residual", larger_is_better=True)]


def _old_gear_first_integral(model, rng):
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-2, 2, 5)
        v = model.velocity(x)
        worst = max(worst, abs(2 * x[0] * v[0] + 2 * x[1] * v[1]))
    return [_old_result("first integral d(x1^2+x2^2)/dt = 0", worst, 1e-12)]


def oracle_checks(model, seed, monkeypatch):
    """The batched checks' results, from the per-point loops (by check name)."""
    rng = np.random.default_rng(seed)
    fps = models.fixed_points(model)
    for _ in range(200):  # the identity suite's draws
        rng.standard_normal((model.dim, model.dim))
        rng.standard_normal((model.dim, model.dim))
    worst = max(_old_hypercoplanarity(model, x)[2]
                for x in _old_in_region_points(model, 50, rng))
    out = [_old_result("phi det route = wedge route", max(0.0, worst), 1e-12,
                       note="Hadamard-scaled")]
    if model.pwl_args:
        out += _old_stack_checks(model, rng)
        out.append(_old_result(
            "Darboux residual L_V phi = Tr(J) phi",
            max(float(manifold.darboux_residual(model, x))
                for x in _old_in_region_points(model, 500, rng)), 1e-8))
        out += _old_plane_checks(model, fps, rng)
    if model.slowfast_defaults is not None:
        out += _old_slowfast_checks(model)
    if model.name == "gear5":
        out += _old_gear_first_integral(model, rng)
        # factor_check's old loop: one single-point phi_scaled per zero-set point
        single = manifold.phi_scaled
        box = [(-2, 2)] * 3 + [(-5, 5), (-2, 2)]
        with monkeypatch.context() as patch:
            patch.setattr(manifold, "phi_scaled", lambda m, x: np.array(
                [float(single(m, p)) for p in np.asarray(x).T]))
            phis = [manifold.factor_check(model, factor, box, samples=60, seed=11)
                    .phi_scaled_max
                    for factor in ("x1^2 + x2^2", "x1^2 + x2^2 - x3", "x4^2 + beta1")]
        out.append(_old_result("phi vanishes on factor zero sets",
                               max(p for p in phis if p is not None), 1e-6))
    return out


def _bits(value):
    return struct.pack("<d", value)


@pytest.mark.parametrize("name, seed", [
    ("chua3-pwl", 0), ("chua4-cubic", 0), ("chua4-pwl", 0), ("chua5-cubic", 0),
    ("chua5-pwl", 0), ("gear5", 0), ("magnetoconvection5", 0),
    ("chua5-pwl", 1), ("chua5-pwl", 7), ("chua4-cubic", 1), ("chua4-cubic", 7)])
def test_batched_checks_equal_per_point_loops(name, seed, monkeypatch):
    model = get_model(name)
    new = {r.name: r for r in verify_model(model, seed=seed)}
    old = oracle_checks(model, seed, monkeypatch)
    assert len(old) >= 2
    for ref in old:
        got = new[ref.name]
        assert _bits(got.residual) == _bits(ref.residual), (ref.name, got.residual,
                                                            ref.residual)
        assert (got.passed, got.note, got.threshold) == (ref.passed, ref.note, ref.threshold)


def test_batched_spectral_helpers_equal_single_point_calls():
    rng = np.random.default_rng(11)
    for name in ("chua4-pwl", "chua5-pwl", "chua4-cubic"):
        model = get_model(name)
        # mixed regions for the PWL models; a state-dependent J for the cubic
        x = rng.uniform(-2.5, 2.5, (model.dim, 40))
        hyper = spectral.hypercoplanarity_check(model, x)
        for p in range(x.shape[1]):
            xp = x[:, p].copy()
            single = spectral.hypercoplanarity_check(model, xp)
            old = _old_hypercoplanarity(model, xp)
            for field, ref in zip(("value_det", "value_wedge", "agreement_residual",
                                   "scaled_value"), old):
                assert _bits(getattr(hyper, field)[p]) == _bits(getattr(single, field))
                assert _bits(getattr(single, field)) == _bits(ref)
        # coplanarity needs a real eigenvalue at each point
        real = [p for p in range(x.shape[1])
                if any(spectral.spectrum_at(model, x[:, p]).is_real(i)
                       for i in range(model.dim))]
        assert len(real) >= 20
        copl = spectral.coplanarity_equivalence(model, x[:, real])
        for k, p in enumerate(real):
            one = spectral.coplanarity_equivalence(model, x[:, p].copy())
            ref = _old_coplanarity(model, x[:, p].copy())
            for key in ref:
                assert _bits(copl[key][k]) == _bits(one[key]) == _bits(ref[key])


def test_batched_wedge_and_vecdot_equal_single_calls():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4, 5, 6):
        a = rng.standard_normal((30, n - 1, n)) * 10.0 ** rng.integers(-6, 6, (30, 1, 1))
        w = geometry.wedge(a)
        v = rng.standard_normal((30, n))
        dots, norms = geometry.vecdot(v, w), geometry.vecnorm(v)
        for p in range(30):
            assert np.array_equal(w[p], _old_wedge(a[p]))
            assert _bits(dots[p]) == _bits(v[p] @ w[p])
            assert _bits(norms[p]) == _bits(np.linalg.norm(v[p]))


# ---------------------------------------------------------------------------
# Non-finite residuals fail their checks
# ---------------------------------------------------------------------------

# Stiffness 1e120 overflows every derivative stack of this 3-D circuit.
BIG3 = {"name": "big3", "dim": 3, "params": {"k": 1e120},
        "rhs": ["k*(x2 - pwl(x1; -1.0, 0.5))", "x1 - x2 + x3", "-k*x2"]}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_sample_residual_fails_its_check():
    results = {r.name: r for r in verify_model(load_model(BIG3))}
    for name in ("phi det route = wedge route", "derivative stack d_{k+1} = J d_k",
                 "Darboux residual L_V phi = Tr(J) phi"):
        assert not math.isfinite(results[name].residual), name
        assert not results[name].passed, name


def test_worst_propagates_nan_and_inf():
    assert verify._worst([]) == 0.0
    assert verify._worst([1e-16, 3e-15]) == 3e-15
    assert math.isnan(verify._worst([1e-16, float("nan"), 2e-16]))
    assert verify._worst([1e-16, float("inf")]) == math.inf


# ---------------------------------------------------------------------------
# verify --format json
# ---------------------------------------------------------------------------

def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def test_margin_dec():
    assert CheckResult("a", 1e-12, 1e-8, True).margin_dec == pytest.approx(4.0)
    assert CheckResult("a", 1e3, 10.0, True, larger_is_better=True).margin_dec \
        == pytest.approx(2.0)
    assert CheckResult("a", 1e-6, 1e-8, False).margin_dec == pytest.approx(-2.0)
    for residual, threshold in ((0.0, 0.0), (0.0, 1e-8), (float("nan"), 1e-8),
                                (float("inf"), 10.0), (-2.2e-16, 1e-8)):
        assert CheckResult("a", residual, threshold, False).margin_dec is None


def test_verify_json_format(capsys):
    code = main(["verify", "--model", "chua3-pwl", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    records = _strict_json(out)
    text_code = main(["verify", "--model", "chua3-pwl"])
    text = capsys.readouterr().out
    assert text_code == 0
    lines = [line for line in text.splitlines() if line.startswith("  [")]
    assert len(records) == len(lines) == 16
    for rec, line in zip(records, lines):
        assert set(rec) == {"model", "name", "residual", "threshold", "passed", "note",
                            "margin_dec"}
        assert rec["model"] == "chua3-pwl" and rec["passed"] is True
        assert f"] {rec['name']}: residual {rec['residual']:.3e} " in line
        if rec["residual"] > 0 and rec["threshold"] > 0:
            assert rec["margin_dec"] == pytest.approx(
                math.log10(rec["threshold"] / rec["residual"]))
        else:
            assert rec["margin_dec"] is None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_json_nonfinite_is_null(tmp_path, capsys):
    path = tmp_path / "big3.json"
    path.write_text(json.dumps(BIG3))
    code = main(["verify", "--model", str(path), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert "3 check(s) failed" in captured.err
    failed = [rec for rec in _strict_json(captured.out) if not rec["passed"]]
    assert len(failed) == 3
    assert all(rec["residual"] is None and rec["margin_dec"] is None for rec in failed)
