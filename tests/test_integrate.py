"""Adaptive integration and PWL event handling."""

import numpy as np
import pytest

from flowcurv import IntegrationError, get_model, integrate, load_model, registry
from flowcurv.integrate import _dp_step, _error_norm
from flowcurv.verify import _reversed

ROTATION = {"name": "rotation", "dim": 2, "params": {}, "rhs": ["-x2", "x1"]}


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


def test_event_localization(chua3):
    traj = integrate(chua3, [0.1, 0.1, 0.1], 50.0, rel_tol=1e-9, abs_tol=1e-12)
    assert len(traj.events) > 4
    states_by_time = dict(zip(traj.times, map(tuple, traj.states)))
    for t_ev, label in traj.events:
        x = np.array(states_by_time[t_ev])
        assert abs(abs(x[0]) - 1.0) <= 1e-9
        assert label.startswith("pwl0:")


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


@pytest.mark.parametrize("kwargs", [
    {"t_end": np.nan}, {"t_end": np.inf},
    {"rel_tol": np.nan}, {"rel_tol": np.inf}, {"abs_tol": np.nan}, {"abs_tol": np.inf},
    {"t0": np.nan}, {"t0": -np.inf}])
def test_non_finite_arguments_rejected(chua3, kwargs):
    # NaN fails every `<= 0` test: a NaN t_end used to return a one-sample
    # trajectory marked complete, and a NaN tolerance rejected every step
    args = {"t_end": 1.0, **kwargs}
    with pytest.raises(ValueError, match="finite"):
        integrate(chua3, [0.1, 0.0, 0.0], max_steps=200, **args)


# -- float-list DP step against the former numpy formulation -----------------

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
    model = (_reversed(get_model("chua3-pwl")) if name == "chua3-pwl-reversed"
             else get_model(name))
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = rng.uniform(-2.5, 2.5, model.dim)
        h = 10.0 ** rng.uniform(-6, -1)
        k1 = model.velocity(x)
        new = _dp_step(model.rhs, x.tolist(), k1.tolist(), h)
        old = _old_dp_step(model.velocity, x, k1, h)
        for a, b in zip(new, old):
            np.testing.assert_array_equal(_bits(a), _bits(b))
        for rel_tol, abs_tol in ((1e-9, 1e-12), (1e-13, 1e-16)):
            assert (_error_norm(x.tolist(), new[0], new[1], rel_tol, abs_tol)
                    == _old_error_norm(x, old[0], old[1], rel_tol, abs_tol))


@pytest.mark.parametrize("name", registry())
def test_reversed_model_negates_rhs_jacobian_and_stack(name):
    from flowcurv import ModelDef, derivative_stack
    model = get_model(name)
    rev = _reversed(model)
    assert isinstance(rev, ModelDef) and rev.name == name + "-reversed"
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.uniform(-2.5, 2.5, model.dim)
        region = model.classify(x)
        assert rev.rhs(x.tolist()) == [-v for v in model.rhs(x.tolist())]
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
    assert s["rhs_evals"] == 2 + 6 * s["dp_steps"] + s["events"]
    # every DP step is accepted, rejected, bisects an event, or is one of the
    # two steps of a hit (the full step that found it and the cut to it)
    assert s["dp_steps"] == (s["accepted_steps"] + s["rejected_steps"]
                             + s["event_bisection_steps"] + 2 * s["events"])
    assert s["events"] == len(traj.events)


def test_stats_counts_chua3(chua3):
    traj = integrate(chua3, [0.1, 0.1, 0.1], 200.0, rel_tol=1e-9, abs_tol=1e-12)
    _check_stats_identities(traj)
    assert traj.stats["dp_steps"] == 16_637
    assert traj.stats["rhs_evals"] == 99_951
    assert traj.stats["events"] == 127
    short = integrate(chua3, [0.1, 0.1, 0.1], 50.0, rel_tol=1e-9, abs_tol=1e-12)
    _check_stats_identities(short)
    assert (short.stats["dp_steps"], short.stats["rhs_evals"], short.stats["events"]) \
        == (4_148, 24_921, 31)


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
