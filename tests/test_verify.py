"""verify's batched checks against per-point oracles; non-finite residuals; JSON."""

import importlib
import json
import math
import signal
import struct
from collections import Counter

import numpy as np
import pytest

from flowcurv import (geometry, get_model, integrate, load_model, manifold, models, spectral,
                      verify)
from flowcurv.cli import main
from flowcurv.jets import derivative_stack
from flowcurv.verify import CheckResult, verify_model

from conftest import (CHUA3_POWERS, CHUA3_TWO_PWL, QUARTER, chua3_like, reversed_model,
                      strict_json)

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
        if model.pwl_args and model.classify(x) != region:
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
    fast = model.slowfast_defaults["fast"][0]
    on, off = [], []
    for x in manifold._singular_points(model, 60, np.random.default_rng(0)):
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
# region_samples against a one-at-a-time rejection loop
# ---------------------------------------------------------------------------

# pwl(x1 - x2) is not a coordinate, so region_box cannot clamp it and draws
# are rejected; CHUA3_TWO_PWL has two pwl terms, so its labels are tuples.
SKEW = {"name": "skew", "dim": 3, "params": {"a": -8.0 / 7.0, "b": -5.0 / 7.0},
        "rhs": ["9*(x2 - x1 - pwl(x1 - x2; a, b))", "x1 - x2 + x3", "-14*x2"]}


def _one_at_a_time(model, rng, count, boxes, regions=(None,), max_draws=math.inf,
                   project=None):
    points, draws = [], 0
    while len(points) < count and draws < max_draws:
        lo, hi = boxes[draws % len(boxes)]
        region = regions[draws % len(regions)]
        draws += 1
        x = rng.uniform(lo, hi)
        if project is not None:
            x = project(x)
        label = model.classify(x)
        if isinstance(label, tuple) and not isinstance(region, tuple):
            label = label[0]  # a string label names the first pwl term's branch
        if region is None or label is None or label == region:
            points.append(x)
    return np.array(points).reshape(-1, model.dim).T, draws


def _plane_projections(normal, offset):
    s = int(np.argmax(np.abs(normal)))

    def single(x):
        x[s] = 0.0
        x[s] = -(normal @ x + offset) / normal[s]
        return x

    def rows(x):
        x[:, s] = 0.0
        x[:, s] = -(geometry.vecdot(x, normal) + offset) / normal[s]
        return x

    return single, rows


def _sampler_cases():
    chua3, cubic = get_model("chua3-pwl"), get_model("chua4-cubic")
    skew, two = load_model(SKEW), load_model(CHUA3_TWO_PWL)
    labels = ("pos", "neg", "mid")
    # solved for x1, so a projected draw can leave the pos box
    single, rows = _plane_projections(np.array([0.8, 0.36, 0.48]), -1.6)
    far = (np.array([5.0, -2.0, -2.0]), np.array([9.0, 2.0, 2.0]))
    return [  # (model, count, boxes, regions, max_draws, single / row projection)
        (chua3, 100, [models.region_box(chua3, r) for r in labels], labels, math.inf, None),
        (skew, 90, [models.region_box(skew, r) for r in labels], labels, math.inf, None),
        (skew, 60, [models.region_box(skew, None)], ("pos", "mid"), math.inf, None),
        (chua3, 80, [models.region_box(chua3, "pos")], ("pos",), 8000, (single, rows)),
        (skew, 80, [models.region_box(skew, None)], ("pos",), 100, None),  # cap reached
        (skew, 30, [far], ("neg",), 150, None),  # cap reached with no point kept
        (cubic, 70, [models.region_box(cubic, None)], (None,), math.inf, None),
        (two, 90, [models.region_box(two, r) for r in labels], labels, math.inf, None),
        (two, 50, [models.region_box(two, "pos")], (("pos", "mid"),), 5000, None),
    ]


@pytest.mark.parametrize("case", range(9))
@pytest.mark.parametrize("seed", [0, 1, 5])
def test_region_samples_equal_one_at_a_time_loop(case, seed):
    model, count, boxes, regions, cap, projections = _sampler_cases()[case]
    single, rows = projections or (None, None)
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    got, draws = models.region_samples(model, rng_new, count, boxes, regions,
                                       max_draws=cap, project=rows)
    ref, ref_draws = _one_at_a_time(model, rng_old, count, boxes, regions,
                                    max_draws=cap, project=single)
    assert got.shape == ref.shape and draws == ref_draws
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(ref).tobytes()
    assert rng_new.random() == rng_old.random()
    if cap < math.inf and got.shape[1] < count:
        assert draws == cap


def test_region_samples_cases_cover_rejection_and_cap():
    kept = []
    for model, count, boxes, regions, cap, projections in _sampler_cases():
        rows = projections[1] if projections else None
        x, draws = models.region_samples(model, np.random.default_rng(0), count, boxes,
                                         regions, max_draws=cap, project=rows)
        kept.append((x.shape[1], draws))
    assert kept[0] == (100, 100)  # clamped boxes keep every draw
    assert kept[1][0] == 90 and kept[1][1] > 90  # unclamped ones reject some
    assert kept[3][0] == 80 and kept[3][1] > 80  # so do projected ones
    assert kept[4][0] < 80 and kept[4][1] == 100
    assert kept[5] == (0, 150)


def test_verify_two_pwl_config_returns(tmp_path, capsys):
    """A config with two pwl terms is sampled by its first term's branch."""
    path = tmp_path / "two.json"
    path.write_text(json.dumps(CHUA3_TWO_PWL))

    def stalled(signum, frame):  # pytest.fail's exception passes main's handlers
        pytest.fail("verify --model on a two-pwl config did not return in 60 s")

    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(60)
    try:
        code = main(["verify", "--model", str(path)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[PASS]") == 7 and "[FAIL]" not in out


def test_affine_pwl_argument_samples_every_branch():
    model = load_model(QUARTER)
    x = verify._in_region_points(model, 500, np.random.default_rng(0))
    assert Counter(models.point_regions(model, x)) == {"pos": 167, "neg": 167, "mid": 166}


def test_plane_checks_without_plane_samples_fail(tmp_path, capsys):
    path = tmp_path / "quarter.json"
    path.write_text(json.dumps(QUARTER))
    assert main(["verify", "--model", str(path)]) == 2
    out = capsys.readouterr().out
    for side in "+-":
        for name in (f"phi factors through plane ({side})",
                     f"coplanarity = orthogonality on plane ({side})"):
            assert (f"[FAIL] {name}: residual nan vs 1.0e-06  (no plane sample in region)"
                    in out)
    assert out.count("[FAIL]") == 4


# The two piecewise-linear identities (d_{k+1} = J d_k and L_V phi = Tr(J) phi)
# need a Jacobian that is constant in each region: every Jacobian tree constant.
SQUARE_ARG = chua3_like("square-arg", "alpha*(x2 - x1 - pwl(0.1*x1^2; a, b))")
SQUARED_PWL = chua3_like("squared-pwl", "alpha*(x2 - x1 - pwl(x1; a, b)^2)")
ZERO_POWER = chua3_like("zero-power", "alpha*(x2 - x1 - pwl(x1; a, b))", "-beta*x2 + 0.5*x3^0")
LINEAR = chua3_like("linear", "alpha*(x2 - 0.5*x1)")
IDENTITIES = ("derivative stack d_{k+1} = J d_k", "Darboux residual L_V phi = Tr(J) phi")


@pytest.mark.parametrize("model, affine", [
    *[(get_model(name), name.endswith("-pwl")) for name in models.registry()],
    (load_model(QUARTER), True), (load_model(ZERO_POWER), True),
    (load_model(CHUA3_TWO_PWL), True), (load_model(LINEAR), True), (load_model(SQUARE_ARG), False),
    (load_model(SQUARED_PWL), False), (load_model(CHUA3_POWERS), False)],
    ids=lambda v: getattr(v, "name", ""))
def test_affine_in_regions(model, affine):
    assert verify._affine_in_regions(model) is affine
    if affine:  # then the stack recurrence holds to rounding
        x = verify._in_region_points(model, 40, np.random.default_rng(1))
        st = derivative_stack(model, x, model.dim + 1)
        J = model.jacobian(x, region=st.region)
        for k in range(model.dim):
            step = np.einsum("ijp,jp->ip", J, st.derivs[k])
            np.testing.assert_allclose(st.derivs[k + 1], step, rtol=1e-10,
                                       atol=1e-12 * np.abs(st.derivs[k + 1]).max())


@pytest.mark.parametrize("config, runs",
                         [(SQUARE_ARG, False), (CHUA3_POWERS, False), (LINEAR, True)],
                         ids=["square-arg", "powers", "linear"])
def test_pwl_identities_run_where_the_jacobian_is_constant_in_each_region(
        config, runs, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["verify", "--model", str(path)]) == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
    for name in IDENTITIES:
        assert (f"[PASS] {name}:" in out) is runs


# ---------------------------------------------------------------------------
# lie_fd_residuals against the re-integrating oracle it replaced
# ---------------------------------------------------------------------------

def _old_lie_fd_residuals(model, count=20):
    """Test-only copy of lie_fd_residuals as it was when the t +- dt states
    came from integrating forward and with the reversed field."""
    dt = verify._FD_TIME_STEP
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.5, 0.5, model.dim)
    horizon, t_min = (0.008, 0.001) if model.name == "gear5" else (2.0, 0.0)
    traj = integrate(model, x, horizon, rel_tol=1e-12, abs_tol=1e-14)
    backward = reversed_model(model)
    first = int(np.searchsorted(traj.times, t_min))
    errors = []
    for k in rng.integers(max(1, first), len(traj.times) - 1, size=count * 4):
        x0 = traj.states[k]
        plus = integrate(model, x0, dt, rel_tol=1e-13, abs_tol=1e-16).states[-1]
        minus = integrate(backward, x0, dt, rel_tol=1e-13, abs_tol=1e-16).states[-1]
        fd = (float(manifold.phi(model, plus)) - float(manifold.phi(model, minus))) / (2 * dt)
        lie = float(manifold.lie_phi(model, x0))
        if lie == 0.0:
            continue
        errors.append(abs(fd - lie) / abs(lie))
        if len(errors) >= count:
            break
    return errors


@pytest.mark.parametrize("name", ["chua4-cubic", "magnetoconvection5", "gear5"])
def test_lie_fd_residuals_equal_reintegrating_oracle(name, monkeypatch):
    model = get_model(name)
    want = _old_lie_fd_residuals(model)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(verify, "integrate", counted)
    monkeypatch.setattr(importlib.import_module("flowcurv.integrate"), "integrate", counted)
    got = verify.lie_fd_residuals(model)
    assert len(calls) == 1  # the base trajectory only
    assert len(got) == 20
    assert [e.hex() for e in got] == [e.hex() for e in want]


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
    records = strict_json(out)
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
    failed = [rec for rec in strict_json(captured.out) if not rec["passed"]]
    assert len(failed) == 3
    assert all(rec["residual"] is None and rec["margin_dec"] is None for rec in failed)
