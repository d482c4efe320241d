"""Model zoo: characteristics, fixed points, configs, Jacobians."""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcurv import expr as ex
from flowcurv import (FixedPoint, ModelDef, ModelError, fixed_points, get_model, integrate,
                      lie_phi, load_model, phi, registry)
from flowcurv.models import (_BUILTIN_BUILDERS, _SNAP_CANDIDATES, _newton_polish, _snap,
                             magneto_equilibrium, point_regions, region_box, solve_columns)

from conftest import POWERS, TWO_PWL, ZERO_SIGNS, reversed_model, with_attrs

REGISTRY_NAMES = ["chua3-pwl", "chua4-cubic", "chua4-pwl", "chua5-cubic",
                  "chua5-pwl", "gear5", "magnetoconvection5"]


def test_registry_names():
    assert registry() == REGISTRY_NAMES


# -- diode characteristics ----------------------------------------------------

def _characteristic(text, **params):
    """The parsed tree of `text` as a function of x1 (a float or an array)."""
    node, _ = ex.parse_expression(text, {"x1": 0}, params)
    return lambda x1: node.eval(np.asarray(x1, dtype=float)[None])


def test_pwl_k_values():
    a, b = -8 / 7, -5 / 7
    pwl_k = _characteristic("pwl(x1; a, b)", a=a, b=b)
    assert pwl_k(0.0) == 0.0
    assert pwl_k(1.0) == pytest.approx(-8 / 7, abs=1e-15)
    # hand evaluation of b*x1 + a - b at x1 = 3/2 gives -3/2
    assert pwl_k(1.5) == pytest.approx(-1.5, abs=1e-15)


@given(a=st.floats(-5, 5), b=st.floats(-5, 5), x=st.floats(-4, 4))
@settings(max_examples=200, deadline=None)
def test_pwl_branch_continuity_and_symmetry(a, b, x):
    # both outer branch formulas reproduce the middle-branch value exactly
    # at their breakpoints, for every (a, b)
    pwl_k = _characteristic("pwl(x1; a, b)", a=a, b=b)
    assert pwl_k(1.0) == a and pwl_k(np.nextafter(1.0, 2.0)) == \
        pytest.approx(a, abs=4 * abs(b) * np.finfo(float).eps + 1e-300)
    assert pwl_k(-1.0) == -a
    assert abs(pwl_k(np.nextafter(1.0, 2.0)) - pwl_k(1.0)) <= abs(b) * 2 ** -50
    assert abs(pwl_k(np.nextafter(-1.0, -2.0)) - pwl_k(-1.0)) <= abs(b) * 2 ** -50
    assert pwl_k(-x) == -pwl_k(x)


def test_cubic_k_values():
    chua4, chua5 = (_characteristic("c1*x1^3 + c2*x1", c1=c1, c2=c2)
                    for c1, c2 in ((0.3937, -0.7235), (0.1068, -0.3056)))
    assert chua4(0.0) == 0.0
    assert chua4(1.0) == pytest.approx(-0.3298, abs=1e-12)
    assert chua5(-2.0) == pytest.approx(-0.2432, abs=1e-12)
    x = np.linspace(-3, 3, 31)
    np.testing.assert_allclose(chua5(-x), -chua5(x), atol=0)


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
    assert [fp.region for fp in fixed_points(chua4) if not fp.virtual] == ["mid"]


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
    # every Chua circuit is odd, f(-x) = -f(x): its equilibria come in +-pairs
    for name in ("chua3-pwl", "chua4-pwl", "chua5-pwl", "chua4-cubic", "chua5-cubic"):
        locs = sorted(tuple(fp.location) for fp in fixed_points(models_by_name[name]))
        mirrored = sorted(tuple(-v for v in loc) for loc in locs)
        assert locs
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
    return all(v == 0.0 for v in model.velocity(np.asarray(x, dtype=float), region=region))


def _oracle_mirror(fp):
    # the mirrored point with _snap's convention: -0.0 turns into +0.0
    region = {"pos": "neg", "neg": "pos", "mid": "mid"}.get(fp.region, fp.region)
    return FixedPoint(-fp.location + 0.0, region=region, virtual=fp.virtual)


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


def _oracle_newton_polish(model, x0, max_iter=60, tol=1e-14):
    # the per-point damped Newton loop that the batched _newton_polish replaced
    x = np.asarray(x0, dtype=float).copy()
    region = model.classify(x)
    for _ in range(max_iter):
        f = model.velocity(x, region=region)
        scale = 1.0 + np.linalg.norm(x)
        if np.linalg.norm(f) <= tol * scale:
            break
        J = model.jacobian(x, region=region)
        try:
            step = np.linalg.solve(J, f)
        except np.linalg.LinAlgError:
            raise ModelError("singular Jacobian in fixed-point Newton iteration")
        damping = 1.0
        fn = np.linalg.norm(f)
        for _ in range(30):
            x_new = x - damping * step
            if np.linalg.norm(model.velocity(x_new, region=model.classify(x_new))) < fn:
                break
            damping *= 0.5
        x = x - damping * step
        region = model.classify(x)
    return x


def _oracle_cubic(model, disc, guess):
    pts = [FixedPoint(np.zeros(model.dim))]
    if disc > 0:
        loc = _oracle_newton_polish(model, np.array(guess(math.sqrt(disc))))
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, overrides", [
    ("chua4-cubic", {}), ("chua5-cubic", {}), ("chua4-cubic", {"c2": -1.7235}),
    ("chua5-cubic", {"c2": -1.3056}), ("magnetoconvection5", {}),
    ("magnetoconvection5", {"varsigma": 0.2}), ("magnetoconvection5", {"varsigma": 0.05})])
def test_batched_newton_polish_matches_per_point_loop(name, overrides):
    # every guess, polished in one batch, lands on the per-point loop's bits;
    # perturbed copies take more (and differently damped) steps than the rest
    model = get_model(name, **overrides)
    guesses = [np.asarray(g, dtype=float) for g in model.fixed_point_guesses]
    if name == "magnetoconvection5":
        guesses.append(magneto_equilibrium(model))
    guesses += [1.1 * g + 0.05 for g in guesses] + [0.7 * g - 0.02 for g in guesses]
    got = _newton_polish(model, guesses)
    want = [_oracle_newton_polish(model, g) for g in guesses]
    assert [loc.tobytes() for loc in got] == [loc.tobytes() for loc in want]


def test_fixed_point_singular_guess_raises():
    # x1 = 0 has a zero Jacobian and a nonzero velocity; the good guess
    # before it does not help
    model = load_model({"name": "flat", "dim": 1, "params": {}, "rhs": ["x1^2 - 1"],
                        "fixed_point_guesses": [[2.0], [0.0]]})
    with pytest.raises(ModelError, match="singular Jacobian"):
        fixed_points(model)


def test_solve_columns_matches_single_solves_and_marks_singular():
    rng = np.random.default_rng(3)
    J, f = rng.standard_normal((6, 3, 3)), rng.standard_normal((6, 3))
    want = [np.linalg.solve(J[i], f[i]).tobytes() for i in range(6)]
    assert [row.tobytes() for row in solve_columns(J, f)] == want
    J[2] = 0.0
    got = solve_columns(J, f)
    assert np.isnan(got[2]).all()
    assert [got[i].tobytes() for i in (0, 1, 3, 4, 5)] == [want[i] for i in (0, 1, 3, 4, 5)]


@pytest.mark.parametrize("name", ["chua3-pwl", "chua4-pwl", "chua5-pwl"])
def test_pwl_json_config_fixed_points_exact(name):
    # a JSON copy of a built-in gets the built-in's equilibria bit for bit,
    # the sign of zero and virtual ones included, with an exactly zero phi
    # and L_V phi and no warning
    builtin = get_model(name)
    model = load_model(json.dumps(dict(_BUILTIN_BUILDERS[name]({}), name=name + "-json")))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fixed_points(model)
    want = fixed_points(builtin)
    assert [(fp.region, fp.virtual) for fp in got] == [(fp.region, fp.virtual) for fp in want]
    for fp, ref in zip(got, want):
        assert fp.location.tobytes() == ref.location.tobytes()
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

        def velocity(state, region=None):
            hit = np.zeros(np.shape(state[0]), dtype=bool)
            for t in targets:
                hit |= (state[0] == t[0]) & (state[1] == t[1])
            return np.array([np.where(hit, 0.0, 1.0)] * 2)

        got = _snap(with_attrs(base, velocity=velocity), loc, None)
        assert got.tobytes() == (shifted(want) + 0.0).tobytes()


def test_snap_box_capped_for_large_dim():
    # 5^6 candidates exceed the budget: the box narrows to +-1 ulp, 3^6
    dim = 6
    rhs = [f"x{i + 2} - x{i + 1}" for i in range(dim - 1)] + ["1 - x6 - pwl(x1; 0.5, 2)"]
    model = load_model({"name": "chain6", "dim": dim, "params": {}, "rhs": rhs})
    widths = []

    def velocity_spy(state, region=None):
        widths.append(np.shape(state[0]))
        return model.velocity(state, region)

    fps = fixed_points(with_attrs(model, velocity=velocity_spy))
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


def _old_region_box(model, region, center=None, halfwidth=2.0):
    """region_box as it was when only a bare coordinate x_i was clamped."""
    center = np.zeros(model.dim) if center is None else np.asarray(center, dtype=float)
    lo, hi = center - halfwidth, center + halfwidth
    if model.pwl_args and isinstance(model.pwl_args[0], ex.Var):
        i = model.pwl_args[0].index
        outer = max(2.5, abs(center[i]) + 1.0)
        if region == "pos":
            lo[i], hi[i] = 1.05, outer
        elif region == "neg":
            lo[i], hi[i] = -outer, -1.05
        else:
            lo[i], hi[i] = -0.95, 0.95
    return lo, hi


def test_region_box_of_bare_coordinate_unchanged(models_by_name):
    rng = np.random.default_rng(4)
    fps = {model.name: [fp.location for fp in fixed_points(model)]
           for model in models_by_name.values()}
    for model in [*models_by_name.values(), *map(load_model, EXTRA_CONFIGS)]:
        centers = [None, *fps.get(model.name, ()), *rng.uniform(-4, 4, (5, model.dim))]
        for region in ("pos", "neg", "mid", None):
            for center in centers:
                for got, want in zip(region_box(model, region, center),
                                     _old_region_box(model, region, center)):
                    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("arg", ["0.25*x1", "0.5 - 0.25*x2", "x3*(-3) + 2"])
def test_region_box_clamps_one_coordinate_affine_argument(arg):
    model = load_model({"name": "affine", "dim": 3, "params": {"a": -1.1, "b": -0.7},
                        "rhs": [f"pwl({arg}; a, b) - x1", "x1 - x2", "-x3"]})
    rng = np.random.default_rng(5)
    for region in ("pos", "neg", "mid"):
        for center in (None, rng.uniform(-3, 3, 3)):
            lo, hi = region_box(model, region, center)
            assert np.all(lo < hi)
            x = rng.uniform(lo, hi, (200, 3)).T
            assert set(point_regions(model, x)) == {region}


def test_region_box_leaves_nonaffine_argument_unclamped():
    model = load_model({"name": "square", "dim": 3, "params": {"a": -1.1, "b": -0.7},
                        "rhs": ["pwl(0.1*x1^2; a, b) - x1", "x1 - x2", "-x3"]})
    for region in ("pos", "neg", "mid"):
        lo, hi = region_box(model, region)
        assert lo.tolist() == [-2.0] * 3 and hi.tolist() == [2.0] * 3


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


@pytest.mark.parametrize("form", ["dict", "text", "path", "file"])
def test_config_with_builtin_name_rejected(form, tmp_path):
    # verify keys model-specific checks on the name, so a config may not take one
    config = dict(_BUILTIN_BUILDERS["chua3-pwl"]({}), name="gear5")
    path = tmp_path / "g.json"
    path.write_text(json.dumps(config))
    source = {"dict": config, "text": json.dumps(config), "path": str(path)}
    with pytest.raises(ModelError, match="'gear5' is a built-in model's"):
        if form == "file":
            with open(path) as fh:
                load_model(fh)
        else:
            load_model(source[form])
    assert load_model(dict(config, name="gear5-json")).dim == 3


def test_load_model_from_json_text_and_registry_alias(chua3):
    # the chua3-pwl alias loads the same model as hand-coded closures
    alias = load_model("chua3-pwl")
    alpha, beta = 9.0, 100.0 / 7.0
    a, b = -8.0 / 7.0, -5.0 / 7.0

    def pwl_k(x1):  # the anchored outer branches of expr.Pwl
        return b * (x1 - 1.0) + a if x1 > 1.0 else b * (x1 + 1.0) - a if x1 < -1.0 else a * x1

    def hand_rhs(x):
        return np.array([alpha * (x[1] - x[0] - pwl_k(x[0])),
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


@pytest.mark.parametrize("name, override", [
    ("chua3-pwl", "alpah"), ("gear5", "alpha"), ("chua5-cubic", "a"),
    ("magnetoconvection5", "cq"), ("magnetoconvection5", "cm"), ("magnetoconvection5", "c5")])
def test_param_override_of_an_unknown_name_is_rejected(name, override):
    with pytest.raises(ModelError, match=f"unknown parameters of {name}: \\['{override}'\\]"):
        get_model(name, **{override: 10.0})


def test_param_override_accepts_each_builtins_own_parameters():
    for name in registry():
        own = _BUILTIN_BUILDERS[name].params
        assert set(own) <= set(get_model(name).params)
        model = get_model(name, **{own[0]: 0.5})
        assert model.params[own[0]] == 0.5


def test_velocity_evaluates_on_scalar_and_jet_paths(models_by_name):
    # the tree walk on a list of Python floats equals velocity and the
    # stack's first derivative, bit for bit
    from flowcurv.jets import derivative_stack
    rng = np.random.default_rng(8)
    for model in models_by_name.values():
        for _ in range(20):
            x = rng.uniform(-3, 3, model.dim)
            want = model.velocity(x)
            np.testing.assert_array_equal([e.eval(x.tolist()) for e in model.rhs_exprs], want)
            np.testing.assert_array_equal(derivative_stack(model, x, 1).derivs[0], want)


# -- velocity as the integrator's k1: a list of floats --------------------------

# JSON configs beyond the built-ins: the README example, two pwl terms (one
# squared, one with a compound argument), powers and constant components
# ("1", x1^0, a constant pwl argument), and the zero-sign cases of
# tests/test_taylor.py
EXTRA_CONFIGS = [
    {"name": "vdp", "dim": 2, "params": {"mu": 1.5}, "rhs": ["x2", "mu*(1 - x1^2)*x2 - x1"]},
    TWO_PWL,
    POWERS,
    {"name": "constants", "dim": 3, "params": {},
     "rhs": ["1", "x1^0", "pwl(2; 1, 2) - x1"]},
    ZERO_SIGNS,
    # parameters that a literal in source text would not carry; at x1 = 1
    # the pwl term is -0.0 on the middle branch and NaN on the outer ones
    {"name": "special", "dim": 3, "params": {"big": math.inf, "nz": -0.0, "nan": math.nan},
     "rhs": ["big*x1 - x2", "pwl(x1; nz, big)", "nan*x1^0 + x3"]},
]


def _rhs_models():
    built = [get_model(name) for name in REGISTRY_NAMES]
    json_copies = [load_model(json.dumps(dict(_BUILTIN_BUILDERS[name]({}), name=name + "-json")))
                   for name in REGISTRY_NAMES]
    extra = [load_model(config) for config in EXTRA_CONFIGS]
    return built + json_copies + extra + [reversed_model(m) for m in built + extra]


RHS_MODELS = _rhs_models()


_EDGE_VALUES = [0.0, -0.0, 1.0, -1.0, math.nextafter(1.0, 2.0), math.nextafter(-1.0, -2.0),
                math.inf, -math.inf, math.nan, 5e-324, 1e308]


def _long_sum_model():
    # 300 terms nest 300 deep in the tree, past a config's depth cap: the
    # model is built from the parsed trees
    rhs = " + ".join(f"{k + 1}*x{k % 2 + 1}" for k in range(300))
    trees = tuple(ex.parse_expression(text, {"x1": 0, "x2": 1}, {})[0] for text in (rhs, "x1"))
    return ModelDef(name="long", params={}, rhs_exprs=trees)


@pytest.mark.parametrize("model", RHS_MODELS + [_long_sum_model()], ids=lambda m: m.name)
def test_compiled_rhs_bit_identical_fixed_states(model):
    # the integrator's k1, `velocity(x).tolist()` of one state, walks the trees
    # on float64 scalars; column 0 of the (n, 1) batch walk reaches the same
    # bits through numpy arrays
    rng = np.random.default_rng(3)
    states = [[v] * model.dim for v in _EDGE_VALUES]
    states += [[v if k == 0 else 0.25 for k in range(model.dim)] for v in _EDGE_VALUES]
    states += rng.uniform(-3, 3, (200, model.dim)).tolist()
    for state in states:
        with np.errstate(all="ignore"):  # inf and NaN states warn on float64
            got = model.velocity(state).tolist()
            want = model.velocity(np.array(state)[:, None])[:, 0].tolist()
        assert all(type(v) is float for v in got)
        # float.hex tells -0.0 from 0.0
        assert list(map(float.hex, got)) == list(map(float.hex, want)), (model.name, state)
    if model.name == "long":
        assert model.velocity([1.0, 1.0])[0] == 300 * 301 / 2


def test_rhs_batches_and_pinned_regions_walk_the_tree(chua3):
    # lists, tuples, batches and pinned regions all walk the trees
    x = [1.5, 0.2, -0.3]
    assert chua3.velocity(x, region="mid").tolist() == [e.eval(x, "mid") for e in chua3.rhs_exprs]
    assert chua3.velocity(x, region="mid").tolist() != chua3.velocity(x).tolist()
    assert chua3.velocity(tuple(x)).tolist() == chua3.velocity(x).tolist()
    batch = np.array([x, [0.5, 0.0, 0.0]]).T
    np.testing.assert_array_equal(chua3.velocity(batch).T,
                                  [chua3.velocity(x), chua3.velocity([0.5, 0.0, 0.0])])


# -- every evaluator derives from rhs_exprs ---------------------------------------

_NEW_FIELD_CASES = [
    # (config, rhs of the field swapped in)
    (dict(_BUILTIN_BUILDERS["chua3-pwl"]({}), name="chua3-json"), None),
    (EXTRA_CONFIGS[1], None),
    # pwl arguments moved, so the new field's regions differ from the old
    (EXTRA_CONFIGS[1], ["x2 - pwl(x3; a, b)", "x1*x3 - pwl(x1 - x2; b, a)^2",
                        "-x1 + 0.5*x2*x2 - 2*x3"]),
]


@pytest.mark.parametrize("config, rhs", _NEW_FIELD_CASES, ids=["chua3-pwl", "two-pwl", "moved"])
def test_replaced_rhs_exprs_drive_every_evaluator(config, rhs):
    # replace(model, rhs_exprs=...) leaves no evaluator on the old field, even
    # after the old model filled its caches: the copy agrees bit for bit with
    # a model built from scratch on the new (negated) field
    model = load_model(config)
    model.jac_exprs, model.pwl_args, model.dp_step  # noqa: B018 - fill the caches
    new_config = dict(config, rhs=[f"-({text})" for text in rhs or config["rhs"]])
    fresh = load_model(new_config)
    swapped = replace(model, rhs_exprs=fresh.rhs_exprs)
    rng = np.random.default_rng(4)
    batch = rng.uniform(-2.5, 2.5, (3, 50))
    np.testing.assert_array_equal(swapped.velocity(batch), fresh.velocity(batch))
    assert not np.array_equal(swapped.velocity(batch), model.velocity(batch))
    regions = fresh.classify(batch)
    np.testing.assert_array_equal(swapped.classify(batch), regions)
    if rhs is not None:
        assert not np.array_equal(model.classify(batch), regions)
    np.testing.assert_array_equal(swapped.jacobian(batch, regions),
                                  fresh.jacobian(batch, regions))
    for x in batch.T.tolist():
        assert swapped.velocity(x).tolist() == fresh.velocity(x).tolist() \
            != model.velocity(x).tolist()
        assert swapped.classify(x) == fresh.classify(x)
        np.testing.assert_array_equal(
            [[e.eval(x) for e in row] for row in swapped.jac_exprs],
            [[e.eval(x) for e in row] for row in fresh.jac_exprs])
        k1 = fresh.velocity(x).tolist()
        assert swapped.dp_step(x, k1, 0.01, 1e-9, 1e-12) == fresh.dp_step(x, k1, 0.01, 1e-9, 1e-12)
    assert swapped.pwl_args == fresh.pwl_args or rhs is None
    x0 = [0.3, -0.2, 0.1]
    got, want = integrate(swapped, x0, 1.0), integrate(fresh, x0, 1.0)
    assert got.times.tobytes() == want.times.tobytes()
    assert got.states.tobytes() == want.states.tobytes()
    assert got.events == want.events and got.events


def test_boolean_dim_and_parameters_rejected():
    # JSON true is an int to isinstance, but neither a dimension nor a number
    with pytest.raises(ModelError, match="dim must be a positive integer"):
        load_model({"name": "b", "dim": True, "params": {"k": 1.0}, "rhs": ["-k*x1"]})
    with pytest.raises(ModelError, match="parameter 'k' is not numeric"):
        load_model({"name": "b", "dim": 1, "params": {"k": True}, "rhs": ["-k*x1"]})
    with pytest.raises(ModelError):
        load_model('{"name": "b", "dim": true, "params": {"k": true}, "rhs": ["-k*x1"]}')
    assert load_model({"name": "b", "dim": 1, "params": {"k": 2}, "rhs": ["-k*x1"]}).params == \
        {"k": 2.0}
