"""Model zoo: characteristics, fixed points, configs, Jacobians."""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcurv import (FixedPoint, ModelError, cubic_k, fixed_points, get_model, lie_phi,
                      load_model, phi, pwl_k, registry)
from flowcurv.models import (_BUILTIN_BUILDERS, _SNAP_CANDIDATES, _newton_polish, _snap,
                             magneto_equilibrium)

REGISTRY_NAMES = ["chua3-pwl", "chua4-cubic", "chua4-pwl", "chua5-cubic",
                  "chua5-pwl", "gear5", "magnetoconvection5"]


def test_registry_names():
    assert registry() == REGISTRY_NAMES


# -- diode characteristics ----------------------------------------------------

def test_pwl_k_values():
    a, b = -8 / 7, -5 / 7
    assert pwl_k(0.0, a, b) == 0.0
    assert pwl_k(1.0, a, b) == pytest.approx(-8 / 7, abs=1e-15)
    # hand evaluation of b*x1 + a - b at x1 = 3/2 gives -3/2
    assert pwl_k(1.5, a, b) == pytest.approx(-1.5, abs=1e-15)


@given(a=st.floats(-5, 5), b=st.floats(-5, 5), x=st.floats(-4, 4))
@settings(max_examples=200, deadline=None)
def test_pwl_branch_continuity_and_symmetry(a, b, x):
    # both outer branch formulas reproduce the middle-branch value exactly
    # at their breakpoints, for every (a, b)
    assert pwl_k(1.0, a, b) == a and pwl_k(np.nextafter(1.0, 2.0), a, b) == \
        pytest.approx(a, abs=4 * abs(b) * np.finfo(float).eps + 1e-300)
    assert pwl_k(-1.0, a, b) == -a
    assert abs(pwl_k(np.nextafter(1.0, 2.0), a, b) - pwl_k(1.0, a, b)) \
        <= abs(b) * 2 ** -50
    assert abs(pwl_k(np.nextafter(-1.0, -2.0), a, b) - pwl_k(-1.0, a, b)) \
        <= abs(b) * 2 ** -50
    assert pwl_k(-x, a, b) == -pwl_k(x, a, b)


def test_cubic_k_values():
    assert cubic_k(0.0, 0.3937, -0.7235) == 0.0
    assert cubic_k(1.0, 0.3937, -0.7235) == pytest.approx(-0.3298, abs=1e-12)
    assert cubic_k(-2.0, 0.1068, -0.3056) == pytest.approx(-0.2432, abs=1e-12)
    x = np.linspace(-3, 3, 31)
    np.testing.assert_allclose(cubic_k(-x, 0.1068, -0.3056),
                               -cubic_k(x, 0.1068, -0.3056), atol=0)


# -- fixed points --------------------------------------------------------------

def test_chua3_fixed_points(chua3):
    fps = fixed_points(chua3)
    locs = np.array([fp.location for fp in fps])
    np.testing.assert_allclose(
        locs, [[-1.5, 0, 1.5], [0, 0, 0], [1.5, 0, -1.5]], atol=1e-12)
    assert [fp.virtual for fp in fps] == [False, False, False]


def test_chua4_fixed_points_virtual(chua4):
    fps = fixed_points(chua4)
    locs = np.array([fp.location for fp in fps])
    x1 = 0.7363636363636363
    np.testing.assert_allclose(
        locs, [[-x1, 0, x1, -x1], [0, 0, 0, 0], [x1, 0, -x1, x1]], atol=1e-4)
    # the outer-branch points sit inside |x1| < 1: virtual branch equilibria
    assert [fp.virtual for fp in fps] == [True, False, True]
    assert fixed_points(chua4, include_virtual=False)[0].region == "mid"


def test_chua5_fixed_points(chua5):
    fps = fixed_points(chua5)
    locs = np.array([fp.location for fp in fps])
    gold = np.array([-1.83477, -0.027471, 1.8073, -0.027471, -1.8073])
    np.testing.assert_allclose(locs[0], gold, atol=1e-4)
    np.testing.assert_allclose(locs[2], -gold, atol=1e-4)


def test_fixed_point_invariant_and_exactness(models_by_name):
    for model in models_by_name.values():
        for fp in fixed_points(model):
            r = model.velocity(fp.location, region=fp.region)
            assert np.linalg.norm(r) <= 1e-10 * (1 + np.linalg.norm(fp.location))
            assert all(v == 0.0 for v in r)  # built-ins snap to exact zeros


def test_chua_fixed_point_sets_symmetric(models_by_name):
    for name, model in models_by_name.items():
        if not model.odd_symmetric:
            continue
        locs = sorted(tuple(fp.location) for fp in fixed_points(model))
        mirrored = sorted(tuple(-fp.location) for fp in fixed_points(model))
        np.testing.assert_allclose(locs, mirrored, atol=0)


def test_origin_in_every_symmetric_pwl_middle_region(models_by_name):
    for name in ("chua3-pwl", "chua4-pwl", "chua5-pwl"):
        fps = fixed_points(models_by_name[name])
        assert any(np.all(fp.location == 0.0) and fp.region == "mid" for fp in fps)


def test_gear_has_no_fixed_points(gear):
    assert fixed_points(gear) == []


def test_magneto_equilibrium_reduction(models_by_name):
    model = models_by_name["magnetoconvection5"]
    eq = magneto_equilibrium(model)
    assert np.linalg.norm(model.velocity(eq)) <= 1e-10 * (1 + np.linalg.norm(eq))
    assert eq[0] > 0.5


# Test-only copy of the per-family solvers that fixed_points replaced: each
# scans the driving coordinate of a closed-form equilibrium ulp by ulp for
# an exactly zero velocity.  The single solver must reproduce them bit for bit.

def _oracle_ulp_neighbors(x, count):
    yield x
    lo = hi = x
    for _ in range(count):
        lo = np.nextafter(lo, -math.inf)
        hi = np.nextafter(hi, math.inf)
        yield hi
        yield lo


def _oracle_zero(model, x, region):
    return all(v == 0.0 for v in model.rhs(np.asarray(x, dtype=float), region=region))


def _oracle_mirror(fp):
    region = {"pos": "neg", "neg": "pos", "mid": "mid"}.get(fp.region, fp.region)
    return FixedPoint(-fp.location, region=region, virtual=fp.virtual)


def _oracle_chua34(model, branch):
    p = model.params
    base = (p["b"] - p["a"]) / (1.0 + p["b"])
    pts = [FixedPoint(np.zeros(model.dim), region="mid")]
    for x1 in _oracle_ulp_neighbors(base, 400):
        cand = np.array(branch(x1))
        if _oracle_zero(model, cand, "pos"):
            fp = FixedPoint(cand, region="pos", virtual=abs(x1) < 1.0)
            return pts + [fp, _oracle_mirror(fp)]
    return pts


def _oracle_chua5(model):
    p = model.params
    b, g1 = p["b"], p["gamma1"]
    pts = [FixedPoint(np.zeros(5), region="mid")]
    for x3 in _oracle_ulp_neighbors((b - p["a"]) / (1.0 - b * (g1 - 1.0)), 100):
        x5 = -x3
        x4 = -(g1 * x5)
        x2 = x4
        for x1 in _oracle_ulp_neighbors(x2 - x3, 100):
            cand = np.array([x1, x2, x3, x4, x5])
            region = "neg" if x1 < 0 else "pos"
            if _oracle_zero(model, cand, region):
                fp = FixedPoint(cand, region=region, virtual=abs(x1) < 1.0)
                return pts + [fp, _oracle_mirror(fp)]
    return pts


def _oracle_cubic(model, disc, guess):
    pts = [FixedPoint(np.zeros(model.dim))]
    if disc > 0:
        loc = _newton_polish(model, np.array(guess(math.sqrt(disc))))
        pts += [FixedPoint(loc), FixedPoint(-loc)]
    return pts


def _oracle_fixed_points(model):
    p = model.params
    if model.name == "chua3-pwl":
        pts = _oracle_chua34(model, lambda x1: [x1, 0.0, -x1])
    elif model.name == "chua4-pwl":
        pts = _oracle_chua34(model, lambda x1: [x1, 0.0, -x1, x1])
    elif model.name == "chua5-pwl":
        pts = _oracle_chua5(model)
    elif model.name == "chua4-cubic":
        pts = _oracle_cubic(model, -(1.0 + p["c2"]) / p["c1"],
                            lambda x1: [x1, 0.0, -x1, x1])
    elif model.name == "chua5-cubic":
        g1 = p["gamma1"]
        pts = _oracle_cubic(model, (1.0 / (g1 - 1.0) - p["c2"]) / p["c1"],
                            lambda x1: [x1, x1 + x1 / (g1 - 1.0), x1 / (g1 - 1.0),
                                        x1 + x1 / (g1 - 1.0), -(x1 / (g1 - 1.0))])
    elif model.name == "magnetoconvection5":
        pts = [FixedPoint(np.zeros(5))]
    else:
        pts = []
    return sorted(pts, key=lambda fp: tuple(fp.location))


@pytest.mark.parametrize("name, overrides", [(name, {}) for name in REGISTRY_NAMES] + [
    ("chua4-cubic", {"c2": -1.7235}), ("chua5-cubic", {"c2": -1.3056})])
def test_fixed_points_match_per_family_oracle(name, overrides):
    model = get_model(name, **overrides)
    got, want = fixed_points(model), _oracle_fixed_points(model)
    assert [(fp.location.tobytes(), fp.region, bool(fp.virtual)) for fp in got] == \
        [(fp.location.tobytes(), fp.region, bool(fp.virtual)) for fp in want]


@pytest.mark.parametrize("name", ["chua3-pwl", "chua4-pwl", "chua5-pwl"])
def test_pwl_json_config_fixed_points_exact(name):
    # a JSON copy of a built-in (no odd symmetry, every branch solved on its
    # own) gets the built-in's equilibria, virtual ones included, with an
    # exactly zero phi and L_V phi and no warning
    builtin = get_model(name)
    model = load_model(json.dumps(dict(_BUILTIN_BUILDERS[name]({}), name=name + "-json")))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fixed_points(model)
    want = fixed_points(builtin)
    assert [(fp.region, fp.virtual) for fp in got] == [(fp.region, fp.virtual) for fp in want]
    for fp, ref in zip(got, want):
        np.testing.assert_array_equal(fp.location, ref.location)  # -0.0 == 0.0
        assert float(phi(model, fp.location, region=fp.region)) == 0.0
        assert float(lie_phi(model, fp.location, region=fp.region)) == 0.0


def test_snap_tie_break_order():
    # a velocity that vanishes exactly on a chosen set of ulp offsets: among
    # the nearest, the first in the order 0, +1, -1, +2, -2 wins, with the
    # first coordinate varying slowest; with none, loc comes back, -0.0 as +0.0
    loc = np.array([0.3, -0.0])

    def shifted(offsets):
        out = loc.copy()
        for i, k in enumerate(offsets):
            for _ in range(abs(k)):
                out[i] = np.nextafter(out[i], math.copysign(math.inf, k))
        return out

    base = load_model({"name": "plane", "dim": 2, "params": {}, "rhs": ["x1", "x2"]})
    for zeros, want in [([(-1, 1), (1, -1)], (1, -1)), ([(-1, 0), (0, -1)], (0, -1)),
                        ([(2, 0), (1, 1), (0, -2)], (0, -2)), ([(2, -2), (0, 1)], (0, 1)),
                        ([], (0, 0))]:
        targets = [shifted(z) for z in zeros]

        def rhs(state, region=None):
            hit = np.zeros(np.shape(state[0]), dtype=bool)
            for t in targets:
                hit |= (state[0] == t[0]) & (state[1] == t[1])
            return [np.where(hit, 0.0, 1.0)] * 2

        got = _snap(replace(base, rhs=rhs), loc, None)
        assert got.tobytes() == (shifted(want) + 0.0).tobytes()


def test_snap_box_capped_for_large_dim():
    # 5^6 candidates exceed the budget: the box narrows to +-1 ulp, 3^6
    dim = 6
    rhs = [f"x{i + 2} - x{i + 1}" for i in range(dim - 1)] + ["1 - x6 - pwl(x1; 0.5, 2)"]
    model = load_model({"name": "chain6", "dim": dim, "params": {}, "rhs": rhs})
    widths = []

    def rhs_spy(state, region=None):
        widths.append(np.shape(state[0]))
        return model.rhs(state, region)

    fps = fixed_points(replace(model, rhs=rhs_spy))
    assert max(int(np.prod(w)) for w in widths) == 3 ** dim <= _SNAP_CANDIDATES
    # every branch solves to x1 = ... = x6 = c: c = -1/6 (neg), 2/3 (mid), 5/6 (pos)
    assert [(fp.region, fp.virtual) for fp in fps] == \
        [("neg", True), ("mid", False), ("pos", True)]
    for fp in fps:
        np.testing.assert_allclose(model.velocity(fp.location, region=fp.region), 0.0,
                                   atol=1e-15)


# -- Jacobians ------------------------------------------------------------------

def test_jacobian_matches_finite_differences(models_by_name):
    h = 1e-6
    for name, model in models_by_name.items():
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 200:
            x = rng.uniform(-3, 3, model.dim)
            if model.pwl_args and min(abs(abs(x[0]) - 1.0), 1.0) < 10 * h:
                continue  # FD straddles a breakpoint
            J = model.jacobian(x)
            J_fd = np.empty_like(J)
            for j in range(model.dim):
                xp = x.copy(); xp[j] += h
                xm = x.copy(); xm[j] -= h
                J_fd[:, j] = (model.velocity(xp) - model.velocity(xm)) / (2 * h)
            err = np.linalg.norm(J - J_fd) / max(1.0, np.linalg.norm(J))
            assert err <= 1e-5, f"{name}: Jacobian FD mismatch {err}"
            checked += 1


def test_pwl_jacobian_constant_within_region(chua3, chua5):
    for model in (chua3, chua5):
        rng = np.random.default_rng(9)
        for region in ("pos", "neg", "mid"):
            xs = []
            while len(xs) < 5:
                x = rng.uniform(-2.5, 2.5, model.dim)
                if model.classify(x) == region:
                    xs.append(x)
            mats = [model.jacobian(x) for x in xs]
            for m in mats[1:]:
                np.testing.assert_array_equal(m, mats[0])


# -- config loading --------------------------------------------------------------

def test_load_model_gear_example():
    config = {
        "name": "gear-custom", "dim": 5,
        "params": {"L": 1000.0, "beta1": 800.0, "beta2": 1200.0},
        "rhs": ["-x2", "x1", "L*(x1^2 + x2^2 - x3)",
                "beta1 + x4^2", "beta2 + x2^2"],
    }
    model = load_model(config)
    np.testing.assert_array_equal(model.velocity([1, 0, 1, 0, 0]),
                                  [0, 1, 0, 800, 1200])


def test_dimension_mismatch_rejected():
    with pytest.raises(ModelError, match="dimension mismatch"):
        load_model({"name": "bad", "dim": 3, "params": {}, "rhs": ["x1", "-x2"]})


def test_unknown_keys_and_symbols_rejected():
    with pytest.raises(ModelError, match="unknown config keys"):
        load_model({"name": "bad", "dim": 1, "params": {}, "rhs": ["x1"],
                    "extras": 1})
    with pytest.raises(Exception, match="unknown symbol"):
        load_model({"name": "bad", "dim": 1, "params": {}, "rhs": ["q*x1"]})


def test_load_model_from_json_text_and_registry_alias(chua3):
    # the chua3-pwl alias loads the same model as hand-coded closures
    alias = load_model("chua3-pwl")
    alpha, beta = 9.0, 100.0 / 7.0
    a, b = -8.0 / 7.0, -5.0 / 7.0

    def hand_rhs(x):
        return np.array([alpha * (x[1] - x[0] - pwl_k(x[0], a, b)),
                         x[0] - x[1] + x[2],
                         -beta * x[1]])

    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.uniform(-3, 3, 3)
        np.testing.assert_allclose(alias.velocity(x), hand_rhs(x),
                                   rtol=1e-14, atol=1e-14)
    # JSON text path builds the identical model
    text = json.dumps({"name": "chua3-json", "dim": 3,
                       "params": alias.params,
                       "rhs": ["alpha*(x2 - x1 - pwl(x1; a, b))",
                               "x1 - x2 + x3", "-beta*x2"]})
    from_text = load_model(text)
    for _ in range(50):
        x = rng.uniform(-3, 3, 3)
        np.testing.assert_array_equal(from_text.velocity(x), alias.velocity(x))


def test_magneto_hand_coded_oracle(models_by_name):
    model = models_by_name["magnetoconvection5"]
    vs, sig, r, q, om = 0.09683, 1.0, 14.47, 5.0, 0.1081

    def hand_rhs(x):
        x1, x2, x3, x4, x5 = x
        return np.array([
            sig * (-x1 + r * x2 - q * x4 * (1 + om * (3 - om) / (vs ** 2 * (4 - om)) * x5)),
            -x2 + x1 - x1 * x3,
            om * (-x3 + x1 * x2),
            -vs * (x4 - x1) - om / (vs * (4 - om)) * x1 * x5,
            -vs * (4 - om) * (x5 - x1 * x4),
        ])

    rng = np.random.default_rng(2)
    for _ in range(100):
        x = rng.uniform(-3, 3, 5)
        np.testing.assert_allclose(model.velocity(x), hand_rhs(x),
                                   rtol=1e-13, atol=1e-13)


def test_generic_pwl_spurious_candidates_discarded():
    # both outer branches of this 1-D system solve to x1 = 0.75, inside the
    # middle region: spurious candidates are warned about and dropped
    model = load_model({"name": "kinked", "dim": 1, "params": {},
                        "rhs": ["pwl(x1; 1, 1) - 0.75"]})
    with pytest.warns(UserWarning, match="spurious"):
        fps = fixed_points(model)
    assert len(fps) == 1
    assert fps[0].region == "mid"
    assert fps[0].location[0] == pytest.approx(0.75, abs=1e-12)


def test_newton_nonconvergence_reported():
    # rhs has no zero anywhere; the Newton guess cannot converge
    model = load_model({"name": "nozero", "dim": 1, "params": {},
                        "rhs": ["x1^2 + 1"], "fixed_point_guesses": [[0.5]]})
    with pytest.warns(UserWarning, match="did not converge"):
        assert fixed_points(model) == []


def test_param_override_rebuilds_derived_constants():
    base = get_model("magnetoconvection5")
    scaled = get_model("magnetoconvection5", varsigma=2 * 0.09683)
    assert scaled.params["cm"] != base.params["cm"]
    assert scaled.params["cq"] == pytest.approx(base.params["cq"] / 4, rel=1e-12)


def test_velocity_evaluates_on_scalar_and_jet_paths(models_by_name):
    # rhs on a list of Python floats (the integrator's path) equals velocity
    # and the stack's first derivative, bit for bit
    from flowcurv.jets import derivative_stack
    rng = np.random.default_rng(8)
    for model in models_by_name.values():
        for _ in range(20):
            x = rng.uniform(-3, 3, model.dim)
            want = model.velocity(x)
            np.testing.assert_array_equal(model.rhs(x.tolist()), want)
            np.testing.assert_array_equal(derivative_stack(model, x, 1).derivs[0], want)
