"""TLS spectra, invariant hyperplanes, coplanarity equivalence."""

import numpy as np
import pytest

from flowcurv import (FixedPoint, SpectralError, coplanarity_equivalence,
                      darboux_check_plane, fixed_points, get_model,
                      hypercoplanarity_check, load_model, spectrum_at,
                      tls_hyperplane)
from flowcurv.spectral import Hyperplane

from conftest import in_region_points


def outer_fps(model):
    return [fp for fp in fixed_points(model) if fp.region in ("pos", "neg")]


# -- spectra against the published values ----------------------------------------

def test_chua3_spectrum_golden(chua3):
    fp = outer_fps(chua3)[0]
    spec = spectrum_at(chua3, fp.location, region=fp.region)
    assert spec.eigenvalues[0].imag == 0
    assert spec.eigenvalues[0].real == pytest.approx(-3.9421, abs=1e-3)
    t_y = spec.left_eigenvectors[:, 0].real
    t_y = t_y / t_y[2]
    np.testing.assert_allclose(t_y, [2.8759, -3.9421, 1.0], atol=1e-3)


def test_chua4_spectrum_golden(chua4):
    fp = outer_fps(chua4)[0]
    spec = spectrum_at(chua4, fp.location, region=fp.region)
    assert spec.eigenvalues[0].real == pytest.approx(-2.5039, abs=1e-3)
    t_y = spec.left_eigenvectors[:, 0].real
    t_y = t_y / np.linalg.norm(t_y)
    gold = np.array([-0.7532, -0.01895, 0.6574, -0.007568])
    sign = np.sign(t_y @ gold)
    np.testing.assert_allclose(sign * t_y, gold, atol=2e-3)


def test_chua5_spectrum_golden(chua5):
    fp = outer_fps(chua5)[0]
    spec = spectrum_at(chua5, fp.location, region=fp.region)
    # the overall dominant eigenvalue is the complex pair with Re = -311.49
    assert spec.eigenvalues[0].real == pytest.approx(-311.49, rel=1e-3)
    assert abs(spec.eigenvalues[0].imag) > 1000
    # the published eigenvector belongs to the dominant real eigenvalue
    i = spec.dominant_real()
    assert spec.eigenvalues[i].real == pytest.approx(-4.68877, rel=1e-4)
    t_y = np.real(spec.left_eigenvectors[:, i])
    t_y = t_y / np.linalg.norm(t_y)
    gold = np.array([0.5625, -0.8068, 0.1804, 0.00009693, -0.000063709])
    sign = np.sign(t_y @ gold)
    np.testing.assert_allclose(sign * t_y, gold, atol=1e-3)


def test_eigen_residual_invariants(models_by_name):
    for model in models_by_name.values():
        for fp in fixed_points(model):
            spec = spectrum_at(model, fp.location, region=fp.region)
            J = spec.jacobian
            for k, lam in enumerate(spec.eigenvalues):
                v = spec.right_eigenvectors[:, k]
                w = spec.left_eigenvectors[:, k]
                scale = (abs(lam) + 1.0)
                assert np.linalg.norm(J @ v - lam * v) <= 1e-8 * scale * np.linalg.norm(v)
                assert np.linalg.norm(J.T @ w - lam * w) <= 1e-8 * scale * np.linalg.norm(w)


def test_eigenvector_sign_convention_deterministic(chua3):
    fp = outer_fps(chua3)[0]
    a = spectrum_at(chua3, fp.location, region=fp.region)
    b = spectrum_at(chua3, fp.location, region=fp.region)
    np.testing.assert_array_equal(a.right_eigenvectors, b.right_eigenvectors)
    for k in range(3):
        if a.is_real(k):
            v = np.real(a.right_eigenvectors[:, k])
            assert v[np.argmax(np.abs(v))] > 0


# -- hyperplanes ------------------------------------------------------------------

def test_chua3_hyperplanes_golden(chua3):
    for fp in outer_fps(chua3):
        plane = tls_hyperplane(chua3, fp)
        disp = plane.display("last1")
        sign = 1.0 if fp.location[0] < 0 else -1.0
        np.testing.assert_allclose(
            disp, [2.8759, -3.9421, 1.0, sign * 2.8139], atol=1e-3)
        assert abs(plane.value(fp.location)) <= 1e-10


def test_chua4_hyperplanes_golden(chua4):
    for fp in outer_fps(chua4):
        plane = tls_hyperplane(chua4, fp)
        disp = plane.display("lambda-ty")
        sign = 1.0 if fp.location[0] < 0 else -1.0
        np.testing.assert_allclose(
            disp, [1.8861, 0.04744, -1.6461, 0.01895, sign * 2.6149], atol=2e-3)


def test_chua5_hyperplanes_golden(chua5):
    gold = np.array([-2.63746, 3.78315, -0.846258, -0.000454517, 0.000298719])
    for fp in outer_fps(chua5):
        plane = tls_hyperplane(chua5, fp)
        disp = plane.display("lambda-ty")
        sign = -1.0 if fp.location[0] < 0 else 1.0
        np.testing.assert_allclose(disp[:5], gold, atol=1e-3 * np.abs(gold).max())
        assert disp[5] == pytest.approx(sign * 3.20524, abs=1e-3 * 3.78315)


def test_plane_normalization_invariance(chua3):
    plane = tls_hyperplane(chua3, outer_fps(chua3)[0])
    rng = np.random.default_rng(0)
    x = rng.uniform(-2, 2, 3)
    base = plane.value(x)
    for style in ("unit", "last1", "lambda-ty"):
        c = plane.display(style)
        # same zero set: display coefficients are a scalar multiple
        ratio = c[:3] / plane.normal
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)
        assert (c[:3] @ x + c[3]) == pytest.approx(ratio[0] * base, rel=1e-12)


def test_plane_symmetry_under_negation(models_by_name):
    # Pi_2 is the image of Pi_1 under X -> -X for the odd-symmetric circuits
    for name in ("chua3-pwl", "chua4-pwl", "chua5-pwl"):
        fps = outer_fps(models_by_name[name])
        p1, p2 = (tls_hyperplane(models_by_name[name], fp) for fp in fps)
        np.testing.assert_allclose(p1.normal, p2.normal, atol=1e-12)
        assert p1.offset == pytest.approx(-p2.offset, rel=1e-10)


def test_complex_only_spectrum_raises():
    # x-y rotation plus an uncoupled rotation: no real eigenvalue anywhere
    model = load_model({"name": "rot4", "dim": 4, "params": {},
                        "rhs": ["-x2", "x1", "-2*x4 + x3", "2*x3 + x4"]})
    spec = spectrum_at(model, np.zeros(4))
    with pytest.raises(SpectralError, match="no real eigenvalue"):
        spec.dominant_real()


# -- plane invariance residuals ----------------------------------------------------

def test_darboux_check_plane_in_region(chua3):
    for fp in outer_fps(chua3):
        plane = tls_hyperplane(chua3, fp)
        summary = darboux_check_plane(chua3, plane, samples=200, seed=1)
        assert summary["count"] == 200
        assert summary["max"] <= 1e-8


def test_darboux_check_plane_detects_perturbation(chua3):
    import dataclasses
    fp = outer_fps(chua3)[0]
    plane = tls_hyperplane(chua3, fp)
    bad = dataclasses.replace(plane, offset=plane.offset + 0.1)
    summary = darboux_check_plane(chua3, bad, samples=100, seed=1)
    assert summary["max"] > 1e-3  # residual O(lambda * 0.1 / scale): non-invariant


def test_darboux_check_plane_without_region_draws():
    # the pos branch of pwl(0.1 x1^2) is |x1| > sqrt(10); region_box cannot
    # clamp that argument, so no draw of the box around the origin is in it
    model = load_model({"name": "square", "dim": 3,
                        "params": {"alpha": 9.0, "beta": 14.0, "a": -1.1, "b": -0.7},
                        "rhs": ["alpha*(x2 - x1 - pwl(0.1*x1^2; a, b))", "x1 - x2 + x3",
                                "-beta*x2"]})
    plane = Hyperplane(normal=np.array([1.0, 0.0, 0.0]), offset=0.0,
                       base_point=FixedPoint(np.zeros(3), region="pos", virtual=True),
                       eigenvalue=-1.0, fast_eigenvalue=-1.0)
    with pytest.warns(UserWarning, match="1000 region-straddling samples excluded"):
        summary = darboux_check_plane(model, plane, samples=20)
    assert summary["count"] == 0 and summary["excluded"] == 1000
    assert np.isnan(summary["max"]) and np.isnan(summary["mean"])


def test_plane_residual_zero_at_fixed_point(chua3):
    fp = outer_fps(chua3)[0]
    plane = tls_hyperplane(chua3, fp)
    v = chua3.velocity(fp.location, region=fp.region)
    assert plane.normal @ v == 0.0
    assert plane.value(fp.location) == pytest.approx(0.0, abs=1e-12)


# -- coplanarity / orthogonality equivalence ----------------------------------------

def test_coplanarity_equivalence_on_plane(chua3):
    fp = outer_fps(chua3)[0]
    plane = tls_hyperplane(chua3, fp)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x1 = rng.uniform(1.2, 2.4) * np.sign(fp.location[0])
        x2 = rng.uniform(-1, 1)
        x3 = -(plane.offset + plane.normal[0] * x1 + plane.normal[1] * x2) / plane.normal[2]
        x = np.array([x1, x2, x3])
        if chua3.classify(x) != fp.region:
            continue
        res = coplanarity_equivalence(chua3, x)
        assert res["r1"] <= 1e-6 * res["scale1"]
        assert res["r2"] <= 1e-6 * res["scale2"]
        assert res["parallelism_defect"] <= 1e-8


def test_coplanarity_ratio_constant_off_plane(chua3):
    # off the plane both residuals are nonzero with a constant ratio: the
    # wedge of slow eigenvectors is parallel to the fast left eigenvector
    ratios = []
    for x in in_region_points(chua3, "pos", 20, seed=3):
        res = coplanarity_equivalence(chua3, x)
        assert res["r1"] > 0 and res["r2"] > 0
        ratios.append(res["r1"] / res["r2"])
    assert np.std(ratios) <= 1e-8 * np.mean(ratios)


@pytest.mark.parametrize("name", ["chua3-pwl", "chua4-pwl", "chua5-pwl"])
def test_slow_wedge_parallel_to_fast_left_vector(name):
    # slow-wedge / fast-left-eigenvector parallelism at every outer fixed point
    from flowcurv.geometry import wedge
    from flowcurv.spectral import _realized_slow_basis
    model = get_model(name)
    for fp in outer_fps(model):
        spec = spectrum_at(model, fp.location, region=fp.region)
        i = spec.dominant_real()
        slow = _realized_slow_basis(spec, i)
        w = wedge(slow)
        t_y = np.real(spec.left_eigenvectors[:, i])
        cosine = abs(w @ t_y) / (np.linalg.norm(w) * np.linalg.norm(t_y))
        assert 1.0 - cosine <= 1e-8


def test_coplanarity_trivial_for_velocity_in_slow_span():
    model = load_model({"name": "diag3", "dim": 3, "params": {},
                        "rhs": ["-10*x1", "-x2", "-2*x3"]})
    # velocity along a slow eigenvector (x2 axis): both residuals vanish
    res = coplanarity_equivalence(model, np.array([0.0, 1.5, 0.0]))
    assert res["r1"] <= 1e-12
    assert res["r2"] <= 1e-12


# -- hypercoplanarity ----------------------------------------------------------------

def test_hypercoplanarity_agreement(chua4):
    for x in in_region_points(chua4, "pos", 30, seed=4):
        res = hypercoplanarity_check(chua4, x)
        assert res.agreement_residual <= 1e-12


def test_hypercoplanarity_on_and_off_plane(chua4):
    fp = outer_fps(chua4)[0]
    plane = tls_hyperplane(chua4, fp)
    rng = np.random.default_rng(5)
    solve = int(np.argmax(np.abs(plane.normal)))
    on_vals, off_vals = [], []
    while len(on_vals) < 20:
        x = rng.uniform(-2, 2, 4)
        x[0] = rng.uniform(1.1, 2.4) * np.sign(fp.location[0])
        x[solve] = 0.0
        x[solve] = -(plane.normal @ x + plane.offset) / plane.normal[solve]
        if chua4.classify(x) != fp.region:
            continue
        on_vals.append(hypercoplanarity_check(chua4, x, region=fp.region).scaled_value)
        off_vals.append(hypercoplanarity_check(
            chua4, x + 0.2 * plane.normal, region=fp.region).scaled_value)
    assert max(on_vals) <= 1e-6
    assert min(off_vals) > 10 * max(on_vals)
