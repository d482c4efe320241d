"""Adaptive Dormand-Prince 5(4) integration with PWL boundary events.

The embedded pair controls the local error per accepted step; for
piecewise-linear models the breakpoint surfaces of every pwl argument
(u = +1 and u = -1) are treated as events: a bracketed crossing is located
to a 1e-12 time tolerance, the step is split there by one true DP step, and
the crossing is recorded, so the Jacobian discontinuities are localized and
every stretch between events stays inside one region.

The located time is the one a bisection with true DP steps would return
(`_bisect_event`), found without its ~40 re-steps: Anderson-Bjorck regula
falsi on the values of g after true DP steps narrows a bracket over the
bisection's dyadic points until it is one cell wide (`_locate_event`),
about four true steps per crossing.  The bisection itself remains the
reference and the fallback, counted in `stats["event_fallbacks"]`.

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
is `ModelDef.velocity` as a list; after an accepted step and after an
event cut alike it is the step's 7th (FSAL) stage.  The locator's steps
take the same step and discard its norm and 7th stage, so
`stats["rhs_evals"]` counts six rhs calls per DP step of every kind.  A
step whose state is not finite, or whose norm is NaN, is rejected and
retried at a quarter of h.

The breakpoint distances u - 1 and u + 1 at the end of an accepted step
or an event cut come from the step as well: its fourth output is each pwl
argument's value at x_new, read off the 7th stage, bit for bit the tree's
value there.  The trees are walked (`_event_functions`) only for the
initial signs and inside the locator; the sign list is copied only on a
step where a sign changes.

Times and states are assembled into float64 arrays once, at the end.  The
work counters are local ints until then, and `stats` is built once, for the
returned `Trajectory` and for the partial one an `IntegrationError` carries
alike.  Everything is plain deterministic float arithmetic: identical
inputs and tolerances reproduce bit-identical trajectories.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Trajectory", "IntegrationError", "integrate", "take_step",
           "last_state_before_crossing"]

_EVENT_TIME_TOL = 1e-12
_EVENT_DEADBAND = 1e-9
_FALSI_TRIALS = 60   # true steps `_locate_event` tries before bisecting


class IntegrationError(RuntimeError):
    """Integration aborted; `.trajectory` holds the partial result."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass(frozen=True)
class Trajectory:
    """Accepted states of one integration, with PWL boundary crossings.

    `stats` counts the work done: rhs evaluations (2 + 6 per DP step), DP
    steps (all of them, event location included), accepted and rejected
    steps, the true DP steps spent locating events (`event_bisection_steps`:
    regula falsi trials plus any fallback bisection), the events whose
    location fell back to bisection, and events.
    """

    times: np.ndarray
    states: np.ndarray            # (nsamples, n)
    events: tuple = ()            # (time, boundary label) pairs; times are floats
    complete: bool = True
    diagnostic: str = ""
    stats: dict = field(default_factory=dict, compare=False)

    def __len__(self):
        return len(self.times)


# each pwl argument u gives two events, in this order: u - 1 (its "+1"
# breakpoint) and u + 1 (its "-1" breakpoint)
_BREAKPOINTS = ((-1.0, "+1"), (1.0, "-1"))


def _event_functions(model):
    """Signed distances to the pwl breakpoints: u(x) - 1 and u(x) + 1 for
    each pwl argument u, evaluated on its tree."""
    funcs = []
    for k, arg in enumerate(model.pwl_args):
        for offset, side in _BREAKPOINTS:
            def g(x, arg=arg, offset=offset):
                return arg.eval(x) + offset
            funcs.append((g, f"pwl{k}:{side}"))
    return funcs


def _side(g_val):
    """+1 or -1 beyond the deadband around a breakpoint, 0 within it."""
    if g_val > _EVENT_DEADBAND:
        return 1
    if g_val < -_EVENT_DEADBAND:
        return -1
    return 0


def integrate(model, x0, t_end, rel_tol=1e-9, abs_tol=1e-12, max_steps=2_000_000):
    """Integrate `model` from `x0` over [0, t_end].

    Returns the accepted steps plus the event points, nothing between them.
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
    step = model.dp_step
    isfinite = math.isfinite
    deadband = _EVENT_DEADBAND

    events = _event_functions(model)
    # event 2k + i is breakpoint i of pwl argument k: g = pwl_values[k] + offset
    reads = tuple((2 * k + i, k, offset) for k in range(len(model.pwl_args))
                  for i, (offset, _) in enumerate(_BREAKPOINTS))
    event_signs = [_side(g(x)) for g, _ in events]

    t = 0.0
    t_final = float(t_end)
    times = [t]
    states = list(x)  # the samples' components, row after row
    recorded_events = []
    attempts = dp_steps = accepted_steps = rejected_steps = 0
    located_steps = fallbacks = 0
    diagnostic = ""

    k1 = model.velocity(x).tolist()
    h = _initial_step(model, x, k1, rel_tol, abs_tol)
    h_min_factor = 16 * sys.float_info.epsilon

    while t < t_final:
        if attempts >= max_steps:
            diagnostic = f"step budget {max_steps} exhausted at t = {t:.6g}"
            break
        attempts += 1
        if t_final - t < h:
            h = t_final - t
        if h <= h_min_factor * (t if t > 1.0 else 1.0):  # max(abs(t), 1.0); t >= 0
            diagnostic = (f"step size underflow at t = {t:.6g} (stiffness beyond the "
                          f"tolerance budget)")
            break

        dp_steps += 1
        x_new, err_norm, k_last, pwl_values = step(x, k1, h, rel_tol, abs_tol)
        # a non-finite state (a finite sum has finite terms; one that
        # overflowed does not say), or a NaN norm beside a finite state: a
        # non-finite stage that the state's weights skip
        if (not (isfinite(sum(x_new)) or all(map(isfinite, x_new)))
                or err_norm != err_norm):
            rejected_steps += 1
            h *= 0.25
            continue

        if err_norm > 1.0:  # reject
            rejected_steps += 1
            h *= max(0.2, 0.9 * err_norm ** -0.2)
            continue

        # event scan on the accepted span: the breakpoint distances at x_new
        # come from the step's 7th stage, not from the trees
        theta_hit, new_signs = None, None
        for idx, k, offset in reads:
            g_val = pwl_values[k] + offset
            s_new = 1 if g_val > deadband else -1 if g_val < -deadband else 0
            s_old = event_signs[idx]
            if s_new == s_old or s_new == 0:
                continue
            if new_signs is None:
                new_signs = event_signs.copy()
            new_signs[idx] = s_new
            if s_old != 0:
                g = events[idx][0]
                theta, true_steps, fell_back = _locate_event(
                    step, x, k1, h, g, s_old, g(x), x_new)
                dp_steps += true_steps
                located_steps += true_steps
                fallbacks += fell_back
                if theta_hit is None or theta < theta_hit:
                    theta_hit, hit_index = theta, idx

        if theta_hit is not None:
            pre_sign = event_signs[hit_index]
            h_ev = theta_hit * h
            dp_steps += 1
            x, _, k1, pwl_values = step(x, k1, h_ev, 1.0, 1.0)  # FSAL
            t = t + h_ev
            times.append(t)
            states += x
            recorded_events.append((t, events[hit_index][1]))
            # post-crossing side of the hit boundary is the flip of the
            # pre-crossing sign; other events re-read at the split point
            event_signs = [_side(pwl_values[k] + offset) if idx != hit_index else -pre_sign
                           for idx, k, offset in reads]
            continue

        accepted_steps += 1
        t = t + h
        x = x_new
        k1 = k_last  # FSAL
        if new_signs is not None:
            event_signs = new_signs
        times.append(t)
        states += x
        if err_norm == 0.0:
            h *= 5.0
        else:
            # min(5.0, max(0.2, factor)); factor >= 0.9 at err_norm <= 1
            factor = 0.9 * err_norm ** -0.2
            h *= factor if factor < 5.0 else 5.0

    # rhs calls: k1 and the starting-step probe, and six stages per DP step
    stats = {"rhs_evals": 2 + 6 * dp_steps, "dp_steps": dp_steps,
             "accepted_steps": accepted_steps, "rejected_steps": rejected_steps,
             "event_bisection_steps": located_steps, "event_fallbacks": fallbacks,
             "events": len(recorded_events)}
    traj = Trajectory(times=np.array(times), states=np.array(states).reshape(len(times), -1),
                      events=tuple(recorded_events), complete=not diagnostic,
                      diagnostic=diagnostic, stats=stats)
    if diagnostic:
        raise IntegrationError(diagnostic, trajectory=traj)
    return traj


def _state_after(step, x, k1, h):
    """The new state of one DP step of size h from x (its error norm unused)."""
    return step(x, k1, h, 1.0, 1.0)[0]


def _event_depth(h):
    """The event cell's depth: the least K with 2^-K h <= 1e-12."""
    depth = 0
    while math.ldexp(h, -depth) > _EVENT_TIME_TOL:
        depth += 1
    return depth


def _locate_event(step, x, k1, h, g, sign_before, g_x, x_new):
    """`_bisect_event`'s theta, found by regula falsi on true DP steps.

    The bisection runs to depth K, the least with 2^-K h <= 1e-12, over the
    dyadic points i 2^-K; write G(i) for the side of g after a true DP step
    to i 2^-K (pre, post or an exact zero; i = 0 counts as pre and i = 2^K
    as post, the bisection never evaluates them).  When G is monotone along
    the step, the bisection returns the point i with G(i-1) pre and G(i)
    post, or the zero i between a pre and a post point.  This search keeps
    a bracket (lo, hi), lo pre and hi post, from g_x = g(x), which the
    caller gives, and g(x_new).  Each
    trial steps to the regula falsi point of the end values, rounded into
    lo+1..hi-1, or to the midpoint where an end value is on the wrong side,
    zero or not finite; the end that stays is scaled by 1 - f_new / f_moved,
    or by 0.5 where that is not positive (Anderson & Bjorck 1973), so it
    does not stay for long.  A bracket one cell wide returns hi.  A zero
    without a pre and a post neighbour, `_FALSI_TRIALS` trials, or a depth
    too fine for dyadic floats runs the bisection after all.

    Returns (theta, true DP steps taken, whether the bisection ran).
    """
    depth = _event_depth(h)
    steps = 0

    def value(i):
        nonlocal steps
        steps += 1
        return g(_state_after(step, x, k1, math.ldexp(i, -depth) * h))

    def side(val):  # 1 pre, -1 post, 0 an exact zero
        return 0 if val == 0.0 else 1 if (1 if val > 0 else -1) == sign_before else -1

    lo, f_lo, hi, f_hi = 0, g_x, 1 << depth, g(x_new)
    for _ in range(_FALSI_TRIALS if depth <= 52 else 0):
        if hi - lo == 1:
            return math.ldexp(hi, -depth), steps, False
        if 0.0 < sign_before * f_lo < math.inf and 0.0 < -sign_before * f_hi < math.inf:
            i = min(max(lo + round((hi - lo) * (f_lo / (f_lo - f_hi))), lo + 1), hi - 1)
        else:
            i = (lo + hi) // 2
        f = value(i)
        if f == 0.0:
            if ((i - 1 == lo or side(value(i - 1)) == 1)
                    and (i + 1 == hi or side(value(i + 1)) == -1)):
                return math.ldexp(i, -depth), steps, False
            break
        pre = side(f) == 1
        f_moved = f_lo if pre else f_hi
        m = 1.0 - f / f_moved if f_moved != 0.0 else 0.0
        m = m if 0.0 < m < math.inf else 0.5
        if pre:
            lo, f_lo, f_hi = i, f, f_hi * m
        else:
            hi, f_hi, f_lo = i, f, f_lo * m
    theta, bisections = _bisect_event(step, x, k1, h, g, sign_before)
    return theta, steps + bisections, True


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
    x_new, err_norm, *_ = model.dp_step(x, model.velocity(x).tolist(), float(h),
                                        float(rel_tol), float(abs_tol))
    return np.array(x_new), err_norm


def last_state_before_crossing(model, x, x_new, h, g):
    """Last state before g changes sign in the DP step x -> x_new of size h:
    the sign change is located like a PWL event, on true steps from x
    (`_locate_event`, to a cell 2^-K h <= 1e-12).  Returns the true DP step
    to one cell before it (x itself at 0) and the number of DP steps taken."""
    step, h = model.dp_step, float(h)
    x, x_new = (np.asarray(s, dtype=float).tolist() for s in (x, x_new))
    k1 = model.velocity(x).tolist()
    g_x = g(x)
    theta, steps, _ = _locate_event(step, x, k1, h, g, 1 if g_x > 0 else -1, g_x, x_new)
    cell = math.ldexp(1.0, -_event_depth(h))
    if theta <= cell:
        return np.array(x), steps
    return np.array(_state_after(step, x, k1, (theta - cell) * h)), 1 + steps


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
