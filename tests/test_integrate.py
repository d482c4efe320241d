"""Adaptive integration and PWL event handling."""

import gc
import importlib
import math
import warnings

import numpy as np
import pytest

from flowcurv import (IntegrationError, expr, get_model, integrate, load_model, registry,
                      zero_crossings_on_trajectory)
from flowcurv.integrate import (_bisect_event, _event_functions, last_state_before_crossing,
                                take_step)

from conftest import (CHUA3_TWO_PWL, QUARTER, ROTATION, TWO_PWL, chua3_like, reversed_model,
                      with_attrs)


def test_circle_returns_to_start():
    model = load_model(ROTATION)
    traj = integrate(model, [1.0, 0.0], 2 * np.pi, rel_tol=1e-10, abs_tol=1e-13)
    assert traj.complete
    assert np.linalg.norm(traj.states[-1] - [1.0, 0.0]) <= 1e-6
    assert np.all(np.diff(traj.times) > 0)


def test_chua3_double_scroll_bounded_and_two_winged(chua3):
    traj = integrate(chua3, [0.1, 0.1, 0.1], 200.0, rel_tol=1e-9, abs_tol=1e-12)
    assert traj.complete
    norms = np.linalg.norm(traj.states, axis=1)
    assert norms.max() < 20.0
    regions = {chua3.classify(x) for x in traj.states}
    assert {"pos", "neg"} <= regions  # visits both outer regions


def test_convergence_order():
    model = load_model(ROTATION)
    ref = integrate(model, [1.0, 0.0], 3.0, rel_tol=1e-12, abs_tol=1e-14).states[-1]
    defects = []
    for rtol in (1e-5, 1e-7, 1e-9):
        end = integrate(model, [1.0, 0.0], 3.0, rel_tol=rtol, abs_tol=rtol * 1e-3).states[-1]
        defects.append(np.linalg.norm(end - ref))
    # tighter tolerances give consistently smaller defects
    assert defects[0] > defects[1] > defects[2]
    assert defects[2] <= 1e-8


# (config, start, events to t = 50): a second pwl term, on x2, and an affine
# pwl argument u = 0.25 x1, whose events lie on |u| = 1 off any state component
SURFACE_RUNS = [(CHUA3_TWO_PWL, [0.1, 0.1, 0.1], 178), (QUARTER, [4.5, 0.5, -0.5], 28)]


def test_event_localization(chua3):
    traj = integrate(chua3, [0.1, 0.1, 0.1], 50.0, rel_tol=1e-9, abs_tol=1e-12)
    assert len(traj.events) > 4
    states_by_time = dict(zip(traj.times, map(tuple, traj.states)))
    for t_ev, label in traj.events:
        x = np.array(states_by_time[t_ev])
        assert abs(abs(x[0]) - 1.0) <= 1e-9
        assert label.startswith("pwl0:")
    # each event lies on its own term's surface |u| = 1 within the locator's
    # 1e-12 time cell at the speed of u; the two-pwl orbit grows to |x| ~ 1e10,
    # beyond any fixed distance
    for config, start, count in SURFACE_RUNS:
        model = load_model(config)
        traj = integrate(model, start, 50.0)
        assert len(traj.events) == count
        states_by_time = dict(zip(traj.times, traj.states))
        for t_ev, label in traj.events:
            x, arg = states_by_time[t_ev], model.pwl_args[int(label[3:label.index(":")])]
            speed = sum(arg.diff(j).eval(x) * v for j, v in enumerate(model.velocity(x)))
            assert abs(abs(arg.eval(x)) - 1.0) <= 1e-12 * abs(speed)


def test_regions_constant_between_events(chua3):
    traj = integrate(chua3, [0.1, 0.1, 0.1], 30.0, rel_tol=1e-9, abs_tol=1e-12)
    event_times = [t for t, _ in traj.events]
    boundaries = np.searchsorted(traj.times, event_times)
    segments = np.split(np.arange(len(traj.times)), boundaries)
    for seg in segments:
        interior = [k for k in seg if traj.times[k] not in event_times]
        labels = {chua3.classify(traj.states[k]) for k in interior}
        assert len(labels) <= 1


def test_gear_first_integral_conservation(gear):
    rel_tol, t_end = 1e-10, 0.04
    traj = integrate(gear, [1.0, 0.5, 1.25, 0.0, 0.0], t_end,
                     rel_tol=rel_tol, abs_tol=1e-14)
    r2 = traj.states[:, 0] ** 2 + traj.states[:, 1] ** 2
    assert np.max(np.abs(r2 - r2[0])) <= 10 * rel_tol * t_end


def test_determinism(chua5):
    a = integrate(chua5, [0.1, 0.05, 0.1, 0.0, 0.0], 0.5, rel_tol=1e-8, abs_tol=1e-11)
    b = integrate(chua5, [0.1, 0.05, 0.1, 0.0, 0.0], 0.5, rel_tol=1e-8, abs_tol=1e-11)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.times, b.times)
    assert a.events == b.events


def test_blowup_aborts_with_partial_trajectory(gear):
    with pytest.raises(IntegrationError) as excinfo:
        integrate(gear, [1.0, 0.0, 1.0, 0.0, 0.0], 1.0, rel_tol=1e-9, abs_tol=1e-12)
    partial = excinfo.value.trajectory
    assert partial is not None and not partial.complete
    assert partial.times[-1] < 0.1  # x4 escapes in finite time ~ 0.055
    assert len(partial) > 10


def test_input_validation(chua3):
    with pytest.raises(ValueError, match="positive"):
        integrate(chua3, [0.1, 0.1, 0.1], -1.0)
    with pytest.raises(ValueError, match="positive"):
        integrate(chua3, [0.1, 0.1, 0.1], 1.0, rel_tol=0.0)
    with pytest.raises(ValueError, match="shape"):
        integrate(chua3, [0.1, 0.1], 1.0)
    with pytest.raises(ValueError, match="finite"):
        integrate(chua3, [np.inf, 0.0, 0.0], 1.0)


@pytest.mark.parametrize("max_steps", [0, -1, 2.5, True, False, None, np.int64(5)])
def test_max_steps_must_be_positive_int(chua3, max_steps):
    # these used to fail as "step budget -1 exhausted", after a step or none
    with pytest.raises(ValueError, match="max_steps must be a positive int"):
        integrate(chua3, [0.1, 0.1, 0.1], 1.0, max_steps=max_steps)


@pytest.mark.parametrize("kwargs", [
    {"t_end": np.nan}, {"t_end": np.inf},
    {"rel_tol": np.nan}, {"rel_tol": np.inf}, {"abs_tol": np.nan}, {"abs_tol": np.inf}])
def test_non_finite_arguments_rejected(chua3, kwargs):
    # NaN fails every `<= 0` test: a NaN t_end used to return a one-sample
    # trajectory marked complete, and a NaN tolerance rejected every step
    args = {"t_end": 1.0, **kwargs}
    with pytest.raises(ValueError, match="finite"):
        integrate(chua3, [0.1, 0.0, 0.0], max_steps=200, **args)


# -- the generated step against list-form and numpy oracles ---------------------

_OLD_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_OLD_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_OLD_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
                   -1 / 40])

# the same tableau, as the list-form oracle writes it
(_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54), \
    (_A61, _A62, _A63, _A64, _A65), (_A71, _A72, _A73, _A74, _A75, _A76) = _OLD_A[1:]
_E1, _E3, _E4, _E5, _E6, _E7 = (float(e) for e in _OLD_E if e != 0.0)


def _dp_step(f, x, k1, h):
    """One DP step from x with k1 = f(x), on lists of floats: (x_new, err,
    k7), each sum written out in the documented order."""
    k2 = f([xc + h * (0.0 + _A21 * p1) for xc, p1 in zip(x, k1)])
    k3 = f([xc + h * (0.0 + _A31 * p1 + _A32 * p2)
            for xc, p1, p2 in zip(x, k1, k2)])
    k4 = f([xc + h * (0.0 + _A41 * p1 + _A42 * p2 + _A43 * p3)
            for xc, p1, p2, p3 in zip(x, k1, k2, k3)])
    k5 = f([xc + h * (0.0 + _A51 * p1 + _A52 * p2 + _A53 * p3 + _A54 * p4)
            for xc, p1, p2, p3, p4 in zip(x, k1, k2, k3, k4)])
    k6 = f([xc + h * (0.0 + _A61 * p1 + _A62 * p2 + _A63 * p3 + _A64 * p4 + _A65 * p5)
            for xc, p1, p2, p3, p4, p5 in zip(x, k1, k2, k3, k4, k5)])
    k7 = f([xc + h * (0.0 + _A71 * p1 + _A72 * p2 + _A73 * p3 + _A74 * p4 + _A75 * p5
                      + _A76 * p6)
            for xc, p1, p2, p3, p4, p5, p6 in zip(x, k1, k2, k3, k4, k5, k6)])
    x_new = [xc + h * (0.0 + _A71 * p1 + _A73 * p3 + _A74 * p4 + _A75 * p5 + _A76 * p6)
             for xc, p1, p3, p4, p5, p6 in zip(x, k1, k3, k4, k5, k6)]
    err = [h * (0.0 + _E1 * p1 + _E3 * p3 + _E4 * p4 + _E5 * p5 + _E6 * p6 + _E7 * p7)
           for p1, p3, p4, p5, p6, p7 in zip(k1, k3, k4, k5, k6, k7)]
    return x_new, err, k7


def _error_norm(x, x_new, err, rel_tol, abs_tol):
    """RMS of err / (abs_tol + rel_tol * max(|x|, |x_new|)), summed in order."""
    acc = 0.0
    for xc, nc, ec in zip(x, x_new, err):
        q = ec / (abs_tol + rel_tol * max(abs(xc), abs(nc)))
        acc += q * q
    return math.sqrt(acc / len(err))


def _tree_rhs(model):
    """The field by walking the expression trees (no compiled code)."""
    return lambda s, region=None: [float(e.eval(s, region)) for e in model.rhs_exprs]


def _oracle_step(model):
    """`step(x, k1, h, rel_tol, abs_tol)` from the list-form oracle on the tree
    walk, the pwl arguments evaluated on their trees at x_new."""
    f = _tree_rhs(model)

    def step(x, k1, h, rel_tol, abs_tol):
        x_new, err, k7 = _dp_step(f, x, k1, h)
        return (x_new, _error_norm(x, x_new, err, rel_tol, abs_tol), k7,
                [arg.eval(x_new) for arg in model.pwl_args])
    return step


def _old_dp_step(f, x, k1, h):
    """The ndarray DP step the float-list loop replaced (reference oracle)."""
    ks = [k1]
    for i in range(1, 7):
        xi = x + h * sum(a * k for a, k in zip(_OLD_A[i], ks))
        ks.append(f(xi))
    x_new = x + h * sum(b * k for b, k in zip(_OLD_B5, ks) if b != 0.0)
    err = h * sum(e * k for e, k in zip(_OLD_E, ks) if e != 0.0)
    return x_new, err, ks[6]


def _old_error_norm(x, x_new, err, rel_tol, abs_tol):
    scale = abs_tol + rel_tol * np.maximum(np.abs(x), np.abs(x_new))
    return np.sqrt(np.mean((err / scale) ** 2))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("name", registry() + ["chua3-pwl-reversed"])
def test_float_step_bit_identical_to_numpy_step(name):
    model = (reversed_model(get_model("chua3-pwl")) if name == "chua3-pwl-reversed"
             else get_model(name))
    step = model.dp_step
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = rng.uniform(-2.5, 2.5, model.dim)
        h = 10.0 ** rng.uniform(-6, -1)
        k1 = model.velocity(x)
        new = _dp_step(_tree_rhs(model), x.tolist(), k1.tolist(), h)
        old = _old_dp_step(model.velocity, x, k1, h)
        for a, b in zip(new, old):
            np.testing.assert_array_equal(_bits(a), _bits(b))
        for rel_tol, abs_tol in ((1e-9, 1e-12), (1e-13, 1e-16)):
            old_norm = _old_error_norm(x, old[0], old[1], rel_tol, abs_tol)
            assert _error_norm(x.tolist(), new[0], new[1], rel_tol, abs_tol) == old_norm
            x_new, norm, k7, _ = step(x.tolist(), k1.tolist(), h, rel_tol, abs_tol)
            assert norm == old_norm
            np.testing.assert_array_equal(_bits(x_new), _bits(old[0]))
            np.testing.assert_array_equal(_bits(k7), _bits(old[2]))


# configs beyond the built-ins: a constant component, a constant pwl argument,
# two pwl terms, and an affine and a quadratic pwl argument
STEP_CONFIGS = {
    "constant-component": {"name": "cc", "dim": 3, "params": {},
                           "rhs": ["-x2", "x1", "2.5"]},
    "constant-pwl-arg": {"name": "cp", "dim": 2, "params": {},
                         "rhs": ["pwl(2; 1, 2) - x1", "-x2 + pwl(0.5; 3, 4)"]},
    "two-pwl": TWO_PWL,
    "quarter": QUARTER,
    "quadratic": chua3_like("quadratic", "alpha*(x2 - x1 - pwl(0.1*x1^2; a, b))"),
}
STEP_MODELS = registry() + ["chua3-pwl-reversed"] + list(STEP_CONFIGS)


def _step_model(name):
    if name == "chua3-pwl-reversed":
        return reversed_model(get_model("chua3-pwl"))
    return load_model(STEP_CONFIGS[name]) if name in STEP_CONFIGS else get_model(name)


def _hex(values):
    return [float.hex(v) for v in values]


_STEP_TOLS = ((1e-9, 1e-12), (1e-13, 1e-16))


def _step_grid(model):
    """(x, k1, step sizes) of the generated-step checks: signed zeros, step
    sizes from 1e-12 to 1 in both directions, and states that overflow to inf
    and NaN.  The third state, stepped by 1e10, overflows the step itself."""
    rng = np.random.default_rng(5)
    n = model.dim
    states = [[-0.0] * n, [0.0, -0.0] * n, [1e300, -1e300] * n, [1e154] * n]
    states = [s[:n] for s in states] + [rng.uniform(-3, 3, n).tolist() for _ in range(40)]
    grid = []
    for k, x in enumerate(states):
        if k % 3 == 0:
            x[k % n] = -0.0
        with np.errstate(over="ignore", invalid="ignore"):  # 1e300 overflows float64 scalars
            k1 = model.velocity(x).tolist()
        grid.append((x, k1, (1e-12, -1e-12, 1e-6, -3e-3, 0.1, 1.0, -1.0, rng.uniform(-1, 1))))
    return grid


@pytest.mark.parametrize("name", STEP_MODELS)
def test_generated_step_equals_list_oracle(name):
    # x_new, the fused norm and k7 (which read every stage), bit for bit, over signed
    # zeros, step sizes from 1e-12 to 1 in both directions, and states that
    # overflow to inf and NaN
    model = _step_model(name)
    step, oracle = model.dp_step, _oracle_step(model)
    grid = _step_grid(model)
    for x, k1, step_sizes in grid:
        assert _hex(k1) == _hex(_tree_rhs(model)(x))
        for h in step_sizes:
            for tols in _STEP_TOLS:
                got, ref = step(x, k1, h, *tols), oracle(x, k1, h, *tols)
                _assert_same_step(got, ref)
    # a step that overflows: inf and NaN land in the same places
    x, k1, _ = grid[2]
    got, ref = step(x, k1, 1e10, 1e-9, 1e-12), oracle(x, k1, 1e10, 1e-9, 1e-12)
    _assert_same_step(got, ref)
    assert not all(map(math.isfinite, got[0])) and math.isnan(got[1])


@pytest.mark.parametrize("name", STEP_MODELS)
def test_step_pwl_values_are_tree_values_at_x_new(name):
    # the step's fourth output is each pwl argument's value at x_new, in
    # pwl_args order: the tree walk at x_new, bit for bit, wherever x_new is
    # finite (the event scan reads nothing else)
    model = _step_model(name)
    step = model.dp_step
    checked = 0
    for x, k1, step_sizes in _step_grid(model):
        for h in step_sizes + (1e10,):
            for tols in _STEP_TOLS:
                x_new, _, _, values = step(x, k1, h, *tols)
                assert len(values) == len(model.pwl_args)
                if all(map(math.isfinite, x_new)):
                    assert _hex(values) == _hex([arg.eval(x_new) for arg in model.pwl_args])
                    checked += 1
    assert checked >= 600


def _assert_same_step(got, ref):
    assert _hex(got[0]) == _hex(ref[0])
    assert float.hex(got[1]) == float.hex(ref[1])
    assert _hex(got[2]) == _hex(ref[2])


@pytest.mark.parametrize("name", ["two-pwl", "constant-pwl-arg", "quarter", "quadratic",
                                  "chua5-pwl"])
def test_event_values_are_floats(name):
    # the loop reads the breakpoint distances on lists of Python floats
    model = _step_model(name)
    events = _event_functions(model)
    assert len(events) == 2 * len(model.pwl_args)
    rng = np.random.default_rng(9)
    n = model.dim
    states = [[-0.0] * n, [1.0] * n, [-1.0] * n, [math.inf] * n, [math.nan] * n]
    states += [rng.uniform(-3, 3, n).tolist() for _ in range(50)]
    assert all(type(g(x)) is float for x in states for g, _ in events)


def test_loop_runs_on_python_floats(chua3):
    # every h the loop passes to the step (event location and cuts included),
    # every state it stores and every event time is a Python float
    step = chua3.dp_step
    seen = []

    def spy(x, k1, h, rel_tol, abs_tol):
        seen.append(h)
        assert all(type(v) is float for v in x + k1)
        out = step(x, k1, h, rel_tol, abs_tol)
        assert all(type(v) is float for v in out[0] + out[2])
        return out

    traj = integrate(with_attrs(chua3, dp_step=spy), [0.1, 0.1, 0.1], 50.0)
    assert len(seen) == traj.stats["dp_steps"] and traj.events
    assert all(type(h) is float for h in seen)
    assert all(type(t) is float for t, _ in traj.events)


def test_step_compiled_lazily_once_per_model(monkeypatch):
    calls = []
    compile_step = expr.compile_step
    monkeypatch.setattr(expr, "compile_step",
                        lambda exprs: calls.append(exprs) or compile_step(exprs))
    model = load_model(STEP_CONFIGS["two-pwl"])
    assert calls == []
    first = integrate(model, [1.5, 0.5, 0.3], 1.4)
    second = integrate(model, [1.5, 0.5, 0.3], 1.4)
    take_step(model, [1.5, 0.5, 0.3], 1e-3, 1e-9, 1e-12)
    assert calls == [model.rhs_exprs]
    np.testing.assert_array_equal(first.states, second.states)


def test_each_config_integrates_its_own_field():
    # configs loaded one after another, each dropped before the next, share
    # no step: every trajectory equals the tree-walk oracle's for its field
    x0 = [0.3, -0.2, 0.1]
    for alpha in (9.0, 15.6, 9.0, 12.0):
        config = dict(STEP_CONFIGS["quarter"], params={**STEP_CONFIGS["quarter"]["params"],
                                                       "alpha": alpha})
        model = load_model(config)
        got = integrate(model, x0, 5.0)
        oracle = with_attrs(
            model, velocity=lambda s, region=None: np.array(_tree_rhs(model)(s, region)),
            dp_step=_oracle_step(model))
        ref = integrate(oracle, x0, 5.0)
        np.testing.assert_array_equal(_bits(got.states), _bits(ref.states))
        np.testing.assert_array_equal(_bits(got.times), _bits(ref.times))
        assert got.events == ref.events and got.stats == ref.stats
        del model, oracle, got, ref
        gc.collect()


@pytest.mark.parametrize("name", registry())
def test_reversed_model_negates_rhs_jacobian_and_stack(name):
    from flowcurv import ModelDef, derivative_stack
    model = get_model(name)
    rev = reversed_model(model)
    assert isinstance(rev, ModelDef) and rev.name == name + "-reversed"
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.uniform(-2.5, 2.5, model.dim)
        region = model.classify(x)
        assert rev.velocity(x).tolist() == [-v for v in model.velocity(x).tolist()]
        np.testing.assert_array_equal(rev.jacobian(x, region=region),
                                      -model.jacobian(x, region=region))
        np.testing.assert_array_equal(
            [[e.eval(x, region) for e in row] for row in rev.jac_exprs],
            rev.jacobian(x, region=region))
        # d_k of the reversed flow is (-1)^k d_k of the forward flow
        fwd, bwd = (derivative_stack(m, x, 3).derivs for m in (model, rev))
        np.testing.assert_allclose(bwd, fwd * np.array([-1.0, 1.0, -1.0])[:, None],
                                   rtol=1e-12, atol=1e-12 * np.abs(fwd).max())


# -- work counters ------------------------------------------------------------

def _check_stats_identities(traj):
    s = traj.stats
    assert len(traj) == 1 + s["accepted_steps"] + s["events"]
    assert s["rhs_evals"] == 2 + 6 * s["dp_steps"]
    # every DP step is accepted, rejected, bisects an event, or is one of the
    # two steps of a hit (the full step that found it and the cut to it)
    assert s["dp_steps"] == (s["accepted_steps"] + s["rejected_steps"]
                             + s["event_bisection_steps"] + 2 * s["events"])
    assert s["events"] == len(traj.events)


def test_stats_counts_chua3(chua3):
    traj = integrate(chua3, [0.1, 0.1, 0.1], 200.0, rel_tol=1e-9, abs_tol=1e-12)
    _check_stats_identities(traj)
    # event location takes a few true steps per crossing; the accepted
    # steps and the samples do not depend on how crossings are located
    assert traj.stats["dp_steps"] == 13_220
    assert traj.stats["rhs_evals"] == 79_322
    assert traj.stats["events"] == 127
    assert traj.stats["accepted_steps"] == 10_852 and len(traj) == 10_980
    assert traj.stats["event_bisection_steps"] <= 800
    short = integrate(chua3, [0.1, 0.1, 0.1], 50.0, rel_tol=1e-9, abs_tol=1e-12)
    _check_stats_identities(short)
    assert (short.stats["dp_steps"], short.stats["rhs_evals"], short.stats["events"]) \
        == (3_317, 19_904, 31)
    assert short.stats["accepted_steps"] == 2_724 and len(short) == 2_756


def test_event_trees_walked_only_off_the_accepted_steps(chua3, monkeypatch):
    # the accepted steps read u -+ 1 from the step's 7th stage; the trees are
    # walked for the initial signs, after an event cut and in the locator
    integrate_module = importlib.import_module("flowcurv.integrate")
    event_functions = integrate_module._event_functions
    calls = []

    def counted(model):
        def wrap(g):
            return lambda x: calls.append(None) or g(x)
        return [(wrap(g), label) for g, label in event_functions(model)]

    monkeypatch.setattr(integrate_module, "_event_functions", counted)
    traj = integrate(chua3, [0.1, 0.1, 0.1], 200.0, rel_tol=1e-9, abs_tol=1e-12)
    assert traj.stats["accepted_steps"] == 10_852 and traj.stats["events"] == 127
    assert 0 < len(calls) < traj.stats["accepted_steps"]


def test_nan_error_norm_rejects_the_step():
    # the generated step can return a finite state beside a NaN norm: a
    # stage the state's weights skip overflows to inf - inf
    overflow = load_model({"name": "nan-norm", "dim": 2, "params": {},
                           "rhs": ["x1^2 + (x1^2*x1^2 - x1^4)", "-x2"]})
    x = [1e76, 1.0]
    x_new, norm, *_ = overflow.dp_step(x, overflow.velocity(x).tolist(), 1e-76, 1e-9, 1e-12)
    assert all(map(math.isfinite, x_new)) and math.isnan(norm)
    # integrate rejects such a step like a non-finite state: a quarter of h,
    # from the same state, counted as rejected
    model = load_model(ROTATION)
    step = model.dp_step
    calls = []

    def nan_once(x, k1, h, rel_tol, abs_tol):
        out = step(x, k1, h, rel_tol, abs_tol)
        if len(calls) == 4:
            out = (out[0], math.nan) + out[2:]
        calls.append((x, h, out[0], out[1]))
        return out

    traj = integrate(with_attrs(model, dp_step=nan_once), [1.0, 0.0], 3.0)
    _check_stats_identities(traj)
    x, h, dropped, _ = calls[4]
    assert calls[5][:2] == (x, 0.25 * h)
    assert dropped not in traj.states.tolist()
    # no events here: every call is a step attempt, rejected unless its norm <= 1
    assert traj.stats["rejected_steps"] == sum(not norm <= 1.0 for *_, norm in calls)


def test_stats_without_events_and_on_failure(gear):
    traj = integrate(load_model(ROTATION), [1.0, 0.0], 3.0)
    _check_stats_identities(traj)
    assert traj.stats["events"] == traj.stats["event_bisection_steps"] == 0
    with pytest.raises(IntegrationError) as excinfo:
        integrate(gear, [1.0, 0.0, 1.0, 0.0, 0.0], 1.0, rel_tol=1e-9, abs_tol=1e-12)
    partial = excinfo.value.trajectory
    assert partial.stats["accepted_steps"] > 10
    assert len(partial) == 1 + partial.stats["accepted_steps"]
    assert partial.stats["rhs_evals"] == 2 + 6 * partial.stats["dp_steps"]


def test_stats_are_per_trajectory(chua3):
    a = integrate(chua3, [0.1, 0.1, 0.1], 1.0)
    b = integrate(chua3, [0.1, 0.1, 0.1], 1.0)
    assert a.stats == b.stats and a.stats is not b.stats


# -- event location against bisection ------------------------------------------

# (model, start, t_end, least number of events); chua5-pwl crosses its
# breakpoints about once per time unit, so it starts on its attractor
EVENT_RUNS = [("chua3-pwl", [0.0, 0.0, 0.0], 40.0, 8), ("chua4-pwl", [0.0] * 4, 150.0, 8),
              ("chua5-pwl", [1.27326, -0.397337, -1.95632, 0.0295889, 1.95655], 2.8, 3)]


@pytest.mark.parametrize("name, start, t_end, min_events", EVENT_RUNS,
                         ids=[run[0] for run in EVENT_RUNS])
@pytest.mark.parametrize("rel_tol", [1e-6, 1e-9, 1e-12])
def test_located_events_equal_bisection(name, start, t_end, min_events, rel_tol,
                                        monkeypatch):
    # every theta the regula falsi on true steps finds is the one the
    # step-by-step bisection returns
    # the package rebinds `flowcurv.integrate` to the function
    integrate_module = importlib.import_module("flowcurv.integrate")
    locate = integrate_module._locate_event
    located = []

    def checked(*args):  # (step, x, k1, h, g, sign_before, g(x), x_new)
        theta, steps, fell_back = locate(*args)
        located.append((theta, _bisect_event(*args[:6])[0], fell_back))
        return theta, steps, fell_back

    monkeypatch.setattr(integrate_module, "_locate_event", checked)
    model = get_model(name)
    x0 = np.add(start, np.random.default_rng(11).uniform(-0.5, 0.5, model.dim)
                * (1e-3 if name == "chua5-pwl" else 1.0))
    traj = integrate(model, x0, t_end, rel_tol=rel_tol, abs_tol=rel_tol * 1e-3)
    _check_stats_identities(traj)
    assert len(located) >= min_events
    assert [theta for theta, _, _ in located] == [ref for _, ref, _ in located]
    assert traj.stats["event_fallbacks"] == sum(fb for _, _, fb in located)
    # the search costs a few true steps per event, not the bisection's ~40
    assert traj.stats["event_bisection_steps"] <= 12 * len(located)


@pytest.mark.parametrize("name, t_end", [("chua3-pwl", 250.0), ("chua5-cubic", 5.0),
                                         ("magnetoconvection5", 50.0)])
def test_zero_crossings_located_as_bisection_without_fallback(name, t_end, monkeypatch):
    # phi's sign changes along a trajectory are located by the search that
    # locates breakpoint crossings: every theta is the bisection's, and the
    # bisection never runs as its fallback
    integrate_module = importlib.import_module("flowcurv.integrate")
    locate, bisect = integrate_module._locate_event, integrate_module._bisect_event
    located, fallbacks = [], []

    def checked(*args):  # (step, x, k1, h, g, sign_before, g(x), x_new)
        theta, steps, fell_back = locate(*args)
        located.append((theta, bisect(*args[:6])[0]))
        return theta, steps, fell_back

    def counted(*args):
        fallbacks.append(args)
        return bisect(*args)

    model = get_model(name)
    traj = integrate(model, np.full(model.dim, 0.1), t_end, rel_tol=1e-9)
    monkeypatch.setattr(integrate_module, "_locate_event", checked)
    monkeypatch.setattr(integrate_module, "_bisect_event", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # chua3-pwl's straddles
        zs = zero_crossings_on_trajectory(model, traj)
    assert len(zs) == len(located) >= 10
    assert [theta for theta, _ in located] == [ref for _, ref in located]
    assert fallbacks == []


def test_last_state_before_crossing_takes_any_g(chua3):
    # the public locator accepts any g: one that is exactly 0.0 at x (its
    # sign before then reads as negative, and the search never divides by
    # that zero end value), and one that is NaN at a trial state
    x = [1.5, 0.2, -0.3]
    h = 0.05
    x_new = take_step(chua3, x, h, 1.0, 1.0)[0].tolist()
    span = x_new[0] - x[0]
    assert span != 0.0

    def through_start(s):  # 0 at x, negative up to 0.3 of the step, then positive
        u = s[0] - x[0]
        return u * (u - 0.3 * span)

    state, steps = last_state_before_crossing(chua3, x, x_new, h, through_start)
    assert through_start(state) < 0.0 and 0 < steps < 60
    assert abs((state[0] - x[0]) / span - 0.3) <= 1e-9

    calls = []

    def nan_once(s):  # NaN at the first trial: after g(x) and g(x_new)
        calls.append(None)
        return math.nan if len(calls) == 3 else s[0] - (x[0] + 0.3 * span)

    state, steps = last_state_before_crossing(chua3, x, x_new, h, nan_once)
    assert len(calls) > 3 and state.shape == (3,) and np.isfinite(state).all()


def test_last_state_before_crossing_evaluates_g_at_x_once(chua3):
    # g at the step's start gives both the sign before and the bracket's
    # lower end; with g = phi each extra call would be one more stack
    x = [1.5, 0.2, -0.3]
    h = 0.05
    x_new = take_step(chua3, x, h, 1.0, 1.0)[0].tolist()
    calls = []

    def counted(s):
        calls.append(list(s))
        return s[0] - (x[0] + 0.3 * (x_new[0] - x[0]))

    state, steps = last_state_before_crossing(chua3, x, x_new, h, counted)
    assert counted(state) < 0.0
    assert calls[:2] == [x, x_new]
    assert calls.count(x) == 1
    # one call at x, one at x_new, one per true step of the search, and the
    # check above
    assert len(calls) == 2 + (steps - 1) + 1
