"""Adaptive Dormand-Prince 5(4) integration with PWL boundary events.

The embedded pair controls the local error per accepted step; for
piecewise-linear models the breakpoint surfaces of every pwl argument
(u = +1 and u = -1) are treated as events: a bracketed crossing is located
to a 1e-12 time tolerance, the step is split there by one true DP step, and
the crossing is recorded, so the Jacobian discontinuities are localized and
every stretch between events stays inside one region.

The located time is the one a bisection with true DP steps would return
(`_bisect_event`), found without its ~40 re-steps: the accepted step's own
stages give Dormand-Prince's continuous extension at no extra rhs call, the
root of g on it picks the bisection's final dyadic cell, and a few true
steps at the cell's ends confirm it (`_locate_event`).  Where they do not,
a secant between the true values moves the cell; the bisection itself
remains the fallback, counted in `stats["event_fallbacks"]`.

The step loop runs on plain Python floats: time, step size, state and
stages are floats and lists of floats, and every step is one call of the
model's generated Dormand-Prince step (`expr.compile_step`, compiled on the
model's first integration and cached as `ModelDef.dp_step`).  That
function holds the fixed summation order of the stage sums, the new state,
the error and its fused norm, so trajectories are bit-identical to the
same scheme written with float64 arrays (`sum()` over the stage arrays,
`np.mean` for the norm).  numpy's mean sums in order below 8 components;
from 8 on it sums pairwise, so there the last bit of the norm (and hence
the step sequence) may differ from an array formulation.  k1 at the start
and after an event cut is `ModelDef.velocity` as a list.  The event
confirmation steps and the event cut take the same step and discard its
norm and 7th stage, so `stats["rhs_evals"]` counts six rhs calls per DP
step of every kind.

Times and states are assembled into float64 arrays once, at the end.  Each
`Trajectory` carries counters of the work done in `stats`.  Everything is
plain deterministic float arithmetic: identical inputs and tolerances
reproduce bit-identical trajectories.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Trajectory", "IntegrationError", "integrate", "take_step",
           "last_state_before_crossing"]

# Coefficients of the fourth-order continuous extension (Hairer, Norsett &
# Wanner, Solving ODEs I, II.6; dopri5's contd5)
_D1, _D3, _D4, _D5, _D6, _D7 = (-12715105075 / 11282082432, 87487479700 / 32700410799,
                                -10690763975 / 1880347072, 701980252875 / 199316789632,
                                -1453857185 / 822651844, 69997945 / 29380423)

_EVENT_TIME_TOL = 1e-12
_EVENT_DEADBAND = 1e-9
_INTERPOLANT_ITERATIONS = 50   # Illinois steps on the interpolant, at most
_CONFIRM_TRIES = 6             # dyadic cells tried before bisecting


class IntegrationError(RuntimeError):
    """Integration aborted; `.trajectory` holds the partial result."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass(frozen=True)
class Trajectory:
    """Accepted states of one integration, with PWL boundary crossings.

    `stats` counts the work done: rhs evaluations (2 + 6 per DP step + 1
    per event), DP steps (all of them, event location included), accepted
    and rejected steps, the true DP steps spent locating events
    (`event_bisection_steps`: confirmation steps plus any fallback
    bisection), the events whose location fell back to bisection, and
    events.
    """

    times: np.ndarray
    states: np.ndarray            # (nsamples, n)
    events: tuple = ()            # (time, boundary label) pairs; times are floats
    complete: bool = True
    diagnostic: str = ""
    model_name: str = field(default="", compare=False)
    stats: dict = field(default_factory=dict, compare=False)

    def __len__(self):
        return len(self.times)


def _event_functions(model):
    """Signed distances to the pwl breakpoints: u(x) - 1 and u(x) + 1 for
    each pwl argument u, evaluated on its tree."""
    funcs = []
    for k, arg in enumerate(model.pwl_args):
        for offset, label in ((-1.0, f"pwl{k}:+1"), (1.0, f"pwl{k}:-1")):
            def g(x, arg=arg, offset=offset):
                return arg.eval(x) + offset
            funcs.append((g, label))
    return funcs


def integrate(model, x0, t_end, rel_tol=1e-9, abs_tol=1e-12, max_steps=2_000_000):
    """Integrate `model` from `x0` over [0, t_end].

    Returns accepted steps plus event points; the interpolant serves event
    location only, no dense output is returned.
    Raises IntegrationError (partial trajectory attached) on step-size
    underflow, a non-finite state, or when `max_steps` step attempts (a
    positive int) do not reach the end; ValueError on invalid arguments.
    """
    if not (0 < rel_tol < math.inf and 0 < abs_tol < math.inf):
        raise ValueError("tolerances must be finite and positive")
    if not 0 < t_end < math.inf:
        raise ValueError("t_end must be finite and positive")
    if isinstance(max_steps, bool) or not isinstance(max_steps, int) or max_steps < 1:
        raise ValueError(f"max_steps must be a positive int, got {max_steps!r}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.dim,):
        raise ValueError(f"x0 must have shape ({model.dim},)")
    if not np.isfinite(x0).all():
        raise ValueError("non-finite initial state")
    x = x0.tolist()
    rel_tol, abs_tol = float(rel_tol), float(abs_tol)

    stats = {"rhs_evals": 0, "dp_steps": 0, "accepted_steps": 0, "rejected_steps": 0,
             "event_bisection_steps": 0, "event_fallbacks": 0, "events": 0}
    step = model.dp_step

    events = _event_functions(model)
    t = 0.0
    t_final = float(t_end)
    times = [t]
    states = [x]
    recorded_events = []

    def count_rhs():
        # k1 and the starting-step probe, six stages per DP step, and k1
        # again after every event cut
        stats["events"] = len(recorded_events)
        stats["rhs_evals"] = 2 + 6 * stats["dp_steps"] + stats["events"]

    def fail(message):
        count_rhs()
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

    k1 = model.velocity(x).tolist()
    h = _initial_step(model, x, k1, rel_tol, abs_tol)
    h_min_factor = 16 * sys.float_info.epsilon

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
        x_new, err_norm, k_last, stages = step(x, k1, h, rel_tol, abs_tol)
        if not all(map(math.isfinite, x_new)):
            stats["rejected_steps"] += 1
            h *= 0.25
            continue

        if err_norm > 1.0:  # reject
            stats["rejected_steps"] += 1
            h *= max(0.2, 0.9 * err_norm ** -0.2)
            continue

        # event scan on the accepted span
        theta_hit, hit_index, dense = None, None, None
        new_signs = list(event_signs)
        for idx, (g, _) in enumerate(events):
            s_new = signed(g(x_new))
            if event_signs[idx] != 0 and s_new != 0 and s_new != event_signs[idx]:
                if dense is None:
                    dense = _dense_output(x, x_new, h, stages)
                theta, true_steps, fell_back = _locate_event(
                    step, x, k1, h, g, event_signs[idx], dense, x_new)
                stats["dp_steps"] += true_steps
                stats["event_bisection_steps"] += true_steps
                stats["event_fallbacks"] += fell_back
                if theta_hit is None or theta < theta_hit:
                    theta_hit, hit_index = theta, idx
            new_signs[idx] = s_new

        if theta_hit is not None:
            pre_sign = event_signs[hit_index]
            _, label = events[hit_index]
            h_ev = theta_hit * h
            stats["dp_steps"] += 1
            x = _state_after(step, x, k1, h_ev)
            t = t + h_ev
            times.append(t)
            states.append(x)
            recorded_events.append((t, label))
            # post-crossing side of the hit boundary is the flip of the
            # pre-crossing sign; other events re-read at the split point
            event_signs = [signed(gg(x)) if i != hit_index else -pre_sign
                           for i, (gg, _) in enumerate(events)]
            k1 = model.velocity(x).tolist()
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

    count_rhs()
    return Trajectory(times=np.array(times), states=np.array(states),
                      events=tuple(recorded_events), complete=True,
                      model_name=model.name, stats=stats)


def _state_after(step, x, k1, h):
    """The new state of one DP step of size h from x (its error norm unused)."""
    return step(x, k1, h, 1.0, 1.0)[0]


def _dense_output(x, x_new, h, stages):
    """Per component, the coefficients (r1..r5) of the step's interpolant."""
    rows = []
    for x0, x1, p1, p3, p4, p5, p6, p7 in zip(x, x_new, *stages):
        ydiff = x1 - x0
        bspl = h * p1 - ydiff
        rows.append((x0, ydiff, bspl, ydiff - h * p7 - bspl,
                     h * (_D1 * p1 + _D3 * p3 + _D4 * p4 + _D5 * p5 + _D6 * p6 + _D7 * p7)))
    return rows


def _interpolate(dense, theta):
    """State at fraction theta of the step, from `_dense_output`'s rows."""
    eta = 1.0 - theta
    return [r1 + theta * (r2 + eta * (r3 + theta * (r4 + eta * r5)))
            for r1, r2, r3, r4, r5 in dense]


def _interpolant_root(g, dense, x_new, sign_before, width):
    """Root of g along the interpolant by Illinois regula falsi, to `width`.

    0.0 when the step's start is not on the pre-crossing side (a sign
    carried over the deadband): the crossing is then at the start.
    """
    a, fa, b, fb = 0.0, g(_interpolate(dense, 0.0)), 1.0, g(x_new)
    if not ((1 if fa > 0 else -1) == sign_before and fa * fb < 0):
        return 0.0
    c, side = a, 0
    for _ in range(_INTERPOLANT_ITERATIONS):
        c_new = (a * fb - b * fa) / (fb - fa)
        if not a < c_new < b:  # no progress, or an overflowed value
            break
        c, c_prev = c_new, c
        if abs(c - c_prev) <= width:
            break
        fc = g(_interpolate(dense, c))
        if fc * fb > 0:
            b, fb = c, fc
            if side == -1:
                fa *= 0.5
            side = -1
        elif fc * fa > 0:
            a, fa = c, fc
            if side == 1:
                fb *= 0.5
            side = 1
        else:
            break
    return c


def _locate_event(step, x, k1, h, g, sign_before, dense, x_new):
    """`_bisect_event`'s theta, found from the step's interpolant.

    The bisection runs to depth K, the least with 2^-K h <= 1e-12, over the
    dyadic points i 2^-K; write G(i) for the side of g after a true DP step
    to i 2^-K (pre, post or an exact zero; i = 0 counts as pre and i = 2^K
    as post, the bisection never evaluates them).  When G is monotone along
    the step, the bisection returns point i with G(i-1) pre and G(i) post,
    or G(i) zero and G(i+1) post.  The interpolant's root picks a cell
    (i-1, i); true steps confirm it, and a cell that fails moves by secant
    between the true values.  After `_CONFIRM_TRIES` cells, or on a depth
    too fine for dyadic floats, the bisection runs after all.

    Returns (theta, true DP steps taken, whether the bisection ran).
    """
    depth = 0
    while math.ldexp(h, -depth) > _EVENT_TIME_TOL:
        depth += 1
    cells = 1 << depth
    values = {}

    def value(i):
        if i not in values:
            values[i] = g(_state_after(step, x, k1, math.ldexp(i, -depth) * h))
        return values[i]

    def side(i):
        if i <= 0 or i >= cells:
            return "pre" if i <= 0 else "post"
        val = value(i)
        if val == 0.0:
            return "zero"
        return "pre" if (1 if val > 0 else -1) == sign_before else "post"

    theta = _interpolant_root(g, dense, x_new, sign_before, math.ldexp(1.0, -depth))
    for _ in range(_CONFIRM_TRIES if depth <= 52 else 0):
        hi = min(max(int(theta * cells), 0), cells - 1) + 1
        lo_side, hi_side = side(hi - 1), side(hi)
        if lo_side == "pre" and (hi_side == "post"
                                 or hi_side == "zero" and side(hi + 1) == "post"):
            return math.ldexp(hi, -depth), len(values), False
        if lo_side == "zero" and hi_side == "post" and side(hi - 2) == "pre":
            return math.ldexp(hi - 1, -depth), len(values), False
        if hi - 1 not in values or hi not in values or values[hi - 1] == values[hi]:
            break
        theta = (hi - values[hi] / (values[hi] - values[hi - 1])) / cells
        if not math.isfinite(theta):
            break
    theta, bisections = _bisect_event(step, x, k1, h, g, sign_before)
    return theta, len(values) + bisections, True


def _bisect_event(step, x, k1, h, g, sign_before):
    """Fraction theta of the step at which g crosses zero, to 1e-12 in time.

    The reference `_locate_event` reproduces, and its fallback.  Returns
    (theta, number of DP steps taken).
    """
    lo, hi = 0.0, 1.0
    bisections = 0
    while (hi - lo) * h > _EVENT_TIME_TOL:
        mid = 0.5 * (lo + hi)
        bisections += 1
        val = g(_state_after(step, x, k1, mid * h))
        if val == 0.0:
            return mid, bisections
        if (1 if val > 0 else -1) == sign_before:
            lo = mid
        else:
            hi = mid
    return hi, bisections


def take_step(model, x, h, rel_tol, abs_tol):
    """One true DP step of size h (h < 0 steps back) from x, k1 = f(x): the
    new state and the step's error norm (`integrate` accepts it at <= 1)."""
    x = np.asarray(x, dtype=float).tolist()
    x_new, err_norm, _, _ = model.dp_step(x, model.velocity(x).tolist(), float(h),
                                          float(rel_tol), float(abs_tol))
    return np.array(x_new), err_norm


def last_state_before_crossing(model, x, x_new, h, g):
    """Last state before g changes sign in the DP step x -> x_new of size h:
    the step is re-taken from x and the sign change located like a PWL event
    (`_locate_event`, to a cell 2^-K h <= 1e-12).  Returns the true DP step
    to one cell before it (x itself at 0) and the number of DP steps taken."""
    step, h = model.dp_step, float(h)
    x, x_new = (np.asarray(s, dtype=float).tolist() for s in (x, x_new))
    k1 = model.velocity(x).tolist()
    dense = _dense_output(x, x_new, h, step(x, k1, h, 1.0, 1.0)[3])
    theta, steps, _ = _locate_event(step, x, k1, h, g, 1 if g(x) > 0 else -1, dense, x_new)
    cell = 1.0
    while cell * h > _EVENT_TIME_TOL:
        cell *= 0.5
    if theta <= cell:
        return np.array(x), 1 + steps
    return np.array(_state_after(step, x, k1, (theta - cell) * h)), 2 + steps


def _initial_step(model, x, k1, rel_tol, abs_tol):
    """Standard order-5 starting-step heuristic."""
    x = np.array(x)
    k1 = np.array(k1)
    scale = abs_tol + rel_tol * np.abs(x)
    d0 = np.sqrt(np.mean((x / scale) ** 2))
    d1 = np.sqrt(np.mean((k1 / scale) ** 2))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    x1 = x + h0 * k1
    k2 = model.velocity(x1)
    d2 = np.sqrt(np.mean(((k2 - k1) / scale) ** 2)) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return float(min(100 * h0, h1))
