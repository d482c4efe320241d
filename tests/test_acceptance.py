"""Acceptance gate: the ten headline criteria at their stated tolerances.

Each test prints one PASS/FAIL line (run with -s to see them inline; the
summary also lands in the captured output on failure).
"""

import re
import time

import numpy as np

from flowcurv import (darboux_residual, factor_check,
                      fixed_points, get_model, det_norm_product_residual,
                      det_multiplicativity_residual, trace_expansion_residual,
                      load_model, phi, registry, tls_hyperplane)
from flowcurv.geometry import DegenerateStackError, curvature1_3d, curvatures, torsion_3d
from flowcurv.jets import derivative_stack
from flowcurv.manifold import _singular_points
from flowcurv.verify import lie_fd_residuals

from conftest import in_region_points

PWL_MODELS = ("chua3-pwl", "chua4-pwl", "chua5-pwl")


def report(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def outer_planes(model):
    fps = [fp for fp in fixed_points(model) if fp.region in ("pos", "neg")]
    return [(fp, tls_hyperplane(model, fp)) for fp in fps]


def plane_points(model, fp, plane, count, seed, offset_dist=0.1):
    """Points on the plane inside the fixed point's outer region, paired
    with companions displaced along the unit normal."""
    rng = np.random.default_rng(seed)
    solve = int(np.argmax(np.abs(plane.normal)))
    sign = np.sign(fp.location[0]) if fp.location[0] != 0 else 1.0
    on, off = [], []
    while len(on) < count:
        x = rng.uniform(-1.5, 1.5, model.dim) + fp.location
        x[0] = sign * rng.uniform(1.2, 2.4)
        x[solve] = 0.0
        x[solve] = -(plane.normal @ x + plane.offset) / plane.normal[solve]
        if model.classify(x) != fp.region:
            continue
        x_off = x + offset_dist * plane.normal
        if model.classify(x_off) != fp.region:
            continue
        on.append(x)
        off.append(x_off)
    return on, off


def test_criterion_1_chua3_hyperplanes(capsys):
    from flowcurv.cli import main
    t0 = time.perf_counter()
    code = main(["hyperplane", "--model", "chua3-pwl"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    lam = [float(m) for m in re.findall(r"lambda_1 = ([-\d.e+]+)", out)]
    eqs = re.findall(r"Pi\(X\) = (.+) = 0", out)
    ok = len(eqs) == 2 and all(abs(l - (-3.9421)) <= 1e-3 for l in lam)
    offsets = []
    for eq in eqs:
        c1 = float(re.search(r"([-\d.]+)\*x1", eq).group(1))
        c2 = -float(re.search(r"- ([\d.]+)\*x2", eq).group(1))
        c3 = float(re.search(r"\+ ([\d.]+)\*x3", eq).group(1))
        tail = re.search(r"x3 ([-+]) ([\d.e]+)$", eq)
        off = float(tail.group(2)) * (1 if tail.group(1) == "+" else -1)
        ok = ok and abs(c1 - 2.8759) <= 1e-3 and abs(c2 - (-3.9421)) <= 1e-3 \
            and abs(c3 - 1.0) <= 1e-3
        offsets.append(off)
    ok = ok and sorted(round(o, 3) for o in offsets) == [-2.814, 2.814]
    ok = ok and elapsed < 1.0
    with capsys.disabled():
        report(1, ok, f"chua3 planes from CLI, {elapsed:.2f}s")


def test_criterion_2_chua4_hyperplanes(capsys):
    t0 = time.perf_counter()
    model = get_model("chua4-pwl")
    planes = outer_planes(model)
    elapsed = time.perf_counter() - t0
    gold = np.array([1.8861, 0.04744, -1.6461, 0.01895])
    ok = len(planes) == 2 and elapsed < 1.0
    for fp, plane in planes:
        ok = ok and abs(plane.fast_eigenvalue.real - (-2.5039)) <= 1e-3
        disp = plane.display("lambda-ty")
        ok = ok and np.all(np.abs(disp[:4] - gold) <= 2e-3)
        want = 2.6149 if fp.location[0] < 0 else -2.6149
        ok = ok and abs(disp[4] - want) <= 2e-3
    with capsys.disabled():
        report(2, ok, f"chua4 lambda1 and lambda*tY plane, {elapsed:.2f}s")


def test_criterion_3_chua5_hyperplanes(capsys):
    t0 = time.perf_counter()
    model = get_model("chua5-pwl")
    fps = fixed_points(model)
    planes = outer_planes(model)
    elapsed = time.perf_counter() - t0
    gold_fp = np.array([-1.83477, -0.027471, 1.8073, -0.027471, -1.8073])
    gold = np.array([-2.63746, 3.78315, -0.846258, -0.000454517, 0.000298719,
                     -3.20524])
    tol = 1e-3 * np.abs(gold).max()
    locs = sorted(map(tuple, (fp.location for fp in fps)))
    ok = (np.abs(np.array(locs[0]) - gold_fp).max() <= 1e-3
          and np.abs(np.array(locs[2]) + gold_fp).max() <= 1e-3)
    for fp, plane in planes:
        ok = ok and abs(plane.fast_eigenvalue.real - (-311.49)) <= 1e-3 * 311.49
        disp = plane.display("lambda-ty")
        target = gold.copy()
        if fp.location[0] > 0:
            target[5] = -target[5]
        ok = ok and np.abs(disp - target).max() <= tol
    ok = ok and elapsed < 1.0
    with capsys.disabled():
        report(3, ok, f"chua5 lambda1, plane, fixed points, {elapsed:.2f}s")


def test_criterion_4_factorization(capsys):
    t0 = time.perf_counter()
    ok = True
    details = []
    for name in PWL_MODELS:
        model = get_model(name)
        for fp, plane in outer_planes(model):
            on, off = plane_points(model, fp, plane, 200, seed=11)
            on_phi = np.array([abs(float(phi(model, x))) for x in on])
            off_phi = np.array([abs(float(phi(model, x))) for x in off])
            ratio = on_phi.max() / np.median(off_phi)
            details.append(f"{name}{'+' if fp.location[0] < 0 else '-'}: {ratio:.1e}")
            ok = ok and ratio <= 1e-6
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    with capsys.disabled():
        report(4, ok, f"max on-plane |phi| / median off-plane: "
                      f"{'; '.join(details)}, {elapsed:.1f}s")


def test_criterion_5_darboux_identity(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for name in PWL_MODELS:
        model = get_model(name)
        pts = []
        for region in ("pos", "neg", "mid"):
            pts += in_region_points(model, region, 167, seed=5)
        for x in pts[:500]:
            worst = max(worst, float(darboux_residual(model, x)))
    linear = load_model({"name": "lin4", "dim": 4, "params": {},
                         "rhs": ["-x1 + 2*x2 - x4", "x1 - x2 + x3",
                                 "0.5*x2 - 3*x3", "x1 + x3 - 0.2*x4"]})
    rng = np.random.default_rng(6)
    for _ in range(500):
        worst = max(worst, float(darboux_residual(linear, rng.uniform(-5, 5, 4))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    with capsys.disabled():
        report(5, ok, f"max Darboux residual {worst:.2e} over PWL + linear, "
                      f"{elapsed:.1f}s")


def test_criterion_6_identity_suite(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = {"norm_product": 0.0, "multiplicativity": 0.0, "trace": 0.0}
    for n in (3, 4, 5):
        for _ in range(1000):
            stack = rng.standard_normal((n, n))
            J = rng.standard_normal((n, n))
            worst["norm_product"] = max(worst["norm_product"], det_norm_product_residual(stack))
            worst["multiplicativity"] = max(worst["multiplicativity"], det_multiplicativity_residual(J, stack))
            worst["trace"] = max(worst["trace"], trace_expansion_residual(J, stack))
    kappa_err = 0.0
    checked = 0
    while checked < 100:
        stack = rng.standard_normal((3, 3))
        try:
            cs = curvatures(stack)
        except DegenerateStackError:
            continue
        checked += 1
        k1 = curvature1_3d(stack[0], stack[1])
        k2 = torsion_3d(stack[0], stack[1], stack[2])
        kappa_err = max(kappa_err,
                        abs(k1 - cs.kappas[0]) / cs.kappas[0],
                        abs(abs(k2) - cs.kappas[1]) / cs.kappas[1])
    elapsed = time.perf_counter() - t0
    ok = max(worst.values()) <= 1e-10 and kappa_err <= 1e-10 and elapsed < 5.0
    with capsys.disabled():
        report(6, ok, f"identity residuals {worst['norm_product']:.1e}/{worst['multiplicativity']:.1e}/"
                      f"{worst['trace']:.1e}, closed-form curvature {kappa_err:.1e}, "
                      f"{elapsed:.1f}s")


def test_criterion_7_gear_model(capsys):
    t0 = time.perf_counter()
    model = get_model("gear5")
    rng = np.random.default_rng(8)
    worst_fi = 0.0
    for _ in range(100):
        x = rng.uniform(-2, 2, 5)
        v = model.velocity(x)
        worst_fi = max(worst_fi, abs(2 * x[0] * v[0] + 2 * x[1] * v[1]))
    box = [(-2, 2)] * 3 + [(-5, 5), (-2, 2)]
    phis = []
    for factor in ("x1^2 + x2^2", "x1^2 + x2^2 - x3", "x4^2 + beta1"):
        rep = factor_check(model, factor, box, samples=80, seed=9)
        if rep.phi_scaled_max is not None:
            phis.append(rep.phi_scaled_max)
    product = factor_check(
        model, "(x1^2 + x2^2)*(x1^2 + x2^2 - x3)*(x4^2 + beta1)", box,
        samples=150, seed=10)
    coeffs = dict(zip(product.cofactor_basis, product.cofactor_coeffs))
    gold = {"1": -model.params["L"], "x4": 2.0}
    coeff_err = max(abs(coeffs[k] - v) / abs(v) for k, v in gold.items())
    stray = max(abs(v) for k, v in coeffs.items() if k not in gold)
    elapsed = time.perf_counter() - t0
    ok = (worst_fi <= 1e-12 and max(phis) <= 1e-6
          and coeff_err <= 1e-3 and stray <= 1e-3 * model.params["L"]
          and elapsed < 10.0)
    with capsys.disabled():
        report(7, ok, f"first-integral {worst_fi:.1e}, phi on factors "
                      f"{max(phis):.1e}, cofactor err {coeff_err:.1e}, {elapsed:.1f}s")


def test_criterion_8_cubic_local_invariance(capsys):
    t0 = time.perf_counter()
    ok = True
    details = []
    for name in ("chua4-cubic", "chua5-cubic", "magnetoconvection5"):
        model = get_model(name)
        on, off = [], []
        for x in _singular_points(model, 60, np.random.default_rng(12)):
            on.append(float(darboux_residual(model, x)))
            y = x.copy()
            y[model.slowfast_defaults["fast"][0]] += 0.5
            off.append(float(darboux_residual(model, y)))
        ratio = float(np.median(off) / np.median(on))
        details.append(f"{name}: {ratio:.0f}x")
        ok = ok and len(on) >= 40 and ratio >= 10.0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    with capsys.disabled():
        report(8, ok, f"median off/on Darboux contrast {'; '.join(details)}, "
                      f"{elapsed:.1f}s")


def test_criterion_9_stack_and_lie(capsys):
    t0 = time.perf_counter()
    worst_stack = 0.0
    for name in PWL_MODELS:
        model = get_model(name)
        for region in ("pos", "neg", "mid"):
            for x in in_region_points(model, region, 30, seed=13):
                st = derivative_stack(model, x, model.dim + 1)
                J = model.jacobian(x, region=st.region)
                for k in range(model.dim):
                    num = np.linalg.norm(st.derivs[k + 1] - J @ st.derivs[k])
                    den = np.linalg.norm(st.derivs[k + 1])
                    if den > 0:
                        worst_stack = max(worst_stack, float(num / den))
    worst_fd = 0.0
    for name in ("chua4-cubic", "magnetoconvection5", "gear5"):
        errors = lie_fd_residuals(get_model(name), count=15)
        worst_fd = max(worst_fd, max(errors))
    elapsed = time.perf_counter() - t0
    ok = worst_stack <= 1e-12 and worst_fd <= 1e-4 and elapsed < 10.0
    with capsys.disabled():
        report(9, ok, f"stack recurrence residual {worst_stack:.1e}, "
                      f"lie FD residual {worst_fd:.1e}, {elapsed:.1f}s")


def test_criterion_10_fixed_point_membership(capsys):
    worst = None
    for name in registry():
        model = get_model(name)
        for fp in fixed_points(model):
            value = phi(model, fp.location, region=fp.region)
            if worst is None or abs(value) > abs(worst):
                worst = value
            assert value == 0.0, (name, fp.location, value)
    with capsys.disabled():
        report(10, worst == 0.0, "phi identically 0.0 at every built-in fixed point")
