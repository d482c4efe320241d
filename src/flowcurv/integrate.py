"""Adaptive Dormand-Prince 5(4) integration with PWL boundary events.

The embedded pair controls the local error per accepted step; for
piecewise-linear models the breakpoint surfaces of every pwl argument
(u = +1 and u = -1) are treated as events: a bracketed crossing is bisected
to a 1e-12 time tolerance, the step is split there, and the crossing is
recorded, so the Jacobian discontinuities are localized and every stretch
between events stays inside one region.

The step loop runs on plain Python floats: the state, the stages k1..k7,
the new state and the error estimate are lists, and the field is evaluated
as `model.rhs(state)` on such a list.  Python floats use the same IEEE
double operations as numpy float64, and every sum is taken in a fixed
order, so trajectories are bit-identical to the same scheme written with
float64 arrays (`sum()` over the stage arrays, `np.mean` for the norm):

- a stage sum starts from 0.0 (so a lone -0.0 product becomes +0.0, as
  in `sum()`) and adds a_ij * k_j[c] in j order, zero tableau entries
  included; the b5 and error sums skip zero weights;
- the new state is x[c] + h * s, the error h * s;
- the error norm is sqrt(acc / n), acc summing q * q in component order
  from 0.0, q = err / (abs_tol + rel_tol * max(|x|, |x_new|)).  numpy's
  mean sums the same way below 8 components; from 8 on it sums pairwise,
  so there the last bit of the norm (and hence the step sequence) may
  differ from an array formulation.

Times and states are assembled into float64 arrays once, at the end.  Each
`Trajectory` carries counters of the work done in `stats`.  Everything is
plain deterministic float arithmetic: identical inputs and tolerances
reproduce bit-identical trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Trajectory", "IntegrationError", "integrate"]

# Dormand-Prince 5(4) tableau (FSAL: the 7th stage is the next step's first)
_A = [
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
(_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54), \
    (_A61, _A62, _A63, _A64, _A65), (_A71, _A72, _A73, _A74, _A75, _A76) = _A
# b5 equals the last row of A (b5_2 = b5_7 = 0); error weights b5 - b4 (e_2 = 0)
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)

_EVENT_TIME_TOL = 1e-12
_EVENT_DEADBAND = 1e-9


class IntegrationError(RuntimeError):
    """Integration aborted; `.trajectory` holds the partial result."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass(frozen=True)
class Trajectory:
    """Accepted states of one integration, with PWL boundary crossings.

    `stats` counts the work done: rhs evaluations, DP steps (all of them,
    event bisection included), accepted and rejected steps, event bisection
    steps and events.
    """

    times: np.ndarray
    states: np.ndarray            # (nsamples, n)
    events: tuple = ()            # (time, boundary label) pairs
    complete: bool = True
    diagnostic: str = ""
    model_name: str = field(default="", compare=False)
    stats: dict = field(default_factory=dict, compare=False)

    def __len__(self):
        return len(self.times)


def _event_functions(model):
    """Signed distances to the pwl breakpoints: u(x) - 1 and u(x) + 1."""
    funcs = []
    for k, arg in enumerate(model.pwl_args):
        for offset, label in ((-1.0, f"pwl{k}:+1"), (1.0, f"pwl{k}:-1")):
            def g(x, arg=arg, offset=offset):
                return float(arg.eval(x)) + offset
            funcs.append((g, label))
    return funcs


def integrate(model, x0, t_end, rel_tol=1e-9, abs_tol=1e-12, t0=0.0,
              max_steps=2_000_000):
    """Integrate `model` from `x0` over [t0, t0 + t_end].

    Returns accepted steps plus event points; no interpolated dense output.
    Raises IntegrationError (partial trajectory attached) on step-size
    underflow or a non-finite state.
    """
    if not (0 < rel_tol < math.inf and 0 < abs_tol < math.inf):
        raise ValueError("tolerances must be finite and positive")
    if not (0 < t_end < math.inf and math.isfinite(t0)):
        raise ValueError("t_end must be finite and positive, t0 finite")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.dim,):
        raise ValueError(f"x0 must have shape ({model.dim},)")
    if not np.isfinite(x0).all():
        raise ValueError("non-finite initial state")
    x = x0.tolist()

    stats = {"rhs_evals": 0, "dp_steps": 0, "accepted_steps": 0, "rejected_steps": 0,
             "event_bisection_steps": 0, "events": 0}
    rhs = model.rhs

    def f(state):
        stats["rhs_evals"] += 1
        return rhs(state)

    events = _event_functions(model)
    t = float(t0)
    t_final = t0 + t_end
    times = [t]
    states = [x]
    recorded_events = []

    def fail(message):
        stats["events"] = len(recorded_events)
        traj = Trajectory(times=np.array(times), states=np.array(states),
                          events=tuple(recorded_events), complete=False,
                          diagnostic=message, model_name=model.name, stats=stats)
        raise IntegrationError(message, trajectory=traj)

    def signed(g_val):
        if g_val > _EVENT_DEADBAND:
            return 1
        if g_val < -_EVENT_DEADBAND:
            return -1
        return 0

    event_signs = [signed(g(x)) for g, _ in events]

    k1 = f(x)
    h = _initial_step(f, x, k1, rel_tol, abs_tol)
    h_min_factor = 16 * np.finfo(float).eps

    steps = 0
    while t < t_final:
        if steps >= max_steps:
            fail(f"step budget {max_steps} exhausted at t = {t:.6g}")
        steps += 1
        h = min(h, t_final - t)
        if h <= h_min_factor * max(abs(t), 1.0):
            fail(f"step size underflow at t = {t:.6g} (stiffness beyond the "
                 f"tolerance budget)")

        stats["dp_steps"] += 1
        x_new, err, k_last = _dp_step(f, x, k1, h)
        if not all(map(math.isfinite, x_new)):
            stats["rejected_steps"] += 1
            h *= 0.25
            continue
        err_norm = _error_norm(x, x_new, err, rel_tol, abs_tol)

        if err_norm > 1.0:  # reject
            stats["rejected_steps"] += 1
            h *= max(0.2, 0.9 * err_norm ** -0.2)
            continue

        # event scan on the accepted span
        theta_hit, hit_index = None, None
        new_signs = list(event_signs)
        for idx, (g, _) in enumerate(events):
            s_new = signed(g(x_new))
            if event_signs[idx] != 0 and s_new != 0 and s_new != event_signs[idx]:
                theta, bisections = _bisect_event(f, x, k1, h, g, event_signs[idx])
                stats["dp_steps"] += bisections
                stats["event_bisection_steps"] += bisections
                if theta_hit is None or theta < theta_hit:
                    theta_hit, hit_index = theta, idx
            new_signs[idx] = s_new

        if theta_hit is not None:
            pre_sign = event_signs[hit_index]
            _, label = events[hit_index]
            h_ev = theta_hit * h
            stats["dp_steps"] += 1
            x, _, _ = _dp_step(f, x, k1, h_ev)
            t = t + h_ev
            times.append(t)
            states.append(x)
            recorded_events.append((t, label))
            # post-crossing side of the hit boundary is the flip of the
            # pre-crossing sign; other events re-read at the split point
            event_signs = [signed(gg(x)) if i != hit_index else -pre_sign
                           for i, (gg, _) in enumerate(events)]
            k1 = f(x)
            continue

        stats["accepted_steps"] += 1
        t = t + h
        x = x_new
        k1 = k_last  # FSAL
        event_signs = [s if s != 0 else old for s, old in zip(new_signs, event_signs)]
        times.append(t)
        states.append(x)
        if err_norm == 0.0:
            h *= 5.0
        else:
            h *= min(5.0, max(0.2, 0.9 * err_norm ** -0.2))

    stats["events"] = len(recorded_events)
    return Trajectory(times=np.array(times), states=np.array(states),
                      events=tuple(recorded_events), complete=True,
                      model_name=model.name, stats=stats)


def _dp_step(f, x, k1, h):
    """One Dormand-Prince step of size h from x (k1 = f(x) supplied, FSAL).

    Returns (x_new, err, k7) as lists of floats.  The stage sums are written
    out term by term; Python evaluates them left to right, which is the
    summation order the module docstring fixes.
    """
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


def _bisect_event(f, x, k1, h, g, sign_before):
    """Fraction theta of the step at which g crosses zero, to 1e-12 in time.

    Returns (theta, number of DP steps taken).
    """
    lo, hi = 0.0, 1.0
    bisections = 0
    while (hi - lo) * h > _EVENT_TIME_TOL:
        mid = 0.5 * (lo + hi)
        bisections += 1
        x_mid, _, _ = _dp_step(f, x, k1, mid * h)
        val = g(x_mid)
        if val == 0.0:
            return mid, bisections
        if (1 if val > 0 else -1) == sign_before:
            lo = mid
        else:
            hi = mid
    return hi, bisections


def _initial_step(f, x, k1, rel_tol, abs_tol):
    """Standard order-5 starting-step heuristic."""
    x = np.array(x)
    k1 = np.array(k1)
    scale = abs_tol + rel_tol * np.abs(x)
    d0 = np.sqrt(np.mean((x / scale) ** 2))
    d1 = np.sqrt(np.mean((k1 / scale) ** 2))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    x1 = x + h0 * k1
    k2 = np.array(f(x1.tolist()))
    d2 = np.sqrt(np.mean(((k2 - k1) / scale) ** 2)) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1)
