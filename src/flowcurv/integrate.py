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

The step loop runs on plain Python floats: the state, the stages k1..k7,
the new state and the error estimate are lists, and the field is evaluated
as `model.rhs(state)` on such a list, which runs the model's compiled
straight-line function.  Python floats use the same IEEE
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

__all__ = ["Trajectory", "IntegrationError", "integrate", "take_step",
           "last_state_before_crossing"]

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

    Returns accepted steps plus event points; the interpolant serves event
    location only, no dense output is returned.
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
             "event_bisection_steps": 0, "event_fallbacks": 0, "events": 0}
    f = model.rhs

    events = _event_functions(model)
    t = float(t0)
    t_final = t0 + t_end
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
        x_new, err, k_last, stages = _dp_step(f, x, k1, h)
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
        theta_hit, hit_index, dense = None, None, None
        new_signs = list(event_signs)
        for idx, (g, _) in enumerate(events):
            s_new = signed(g(x_new))
            if event_signs[idx] != 0 and s_new != 0 and s_new != event_signs[idx]:
                if dense is None:
                    dense = _dense_output(x, x_new, h, stages)
                theta, true_steps, fell_back = _locate_event(
                    f, x, k1, h, g, event_signs[idx], dense, x_new)
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
            x = _dp_step(f, x, k1, h_ev)[0]
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

    count_rhs()
    return Trajectory(times=np.array(times), states=np.array(states),
                      events=tuple(recorded_events), complete=True,
                      model_name=model.name, stats=stats)


def _dp_step(f, x, k1, h):
    """One Dormand-Prince step of size h from x (k1 = f(x) supplied, FSAL).

    Returns (x_new, err, k7, stages) with lists of floats, `stages` the
    (k1, k3, k4, k5, k6, k7) that `_dense_output` needs.  The stage sums are
    written out term by term; Python evaluates them left to right, which is
    the summation order the module docstring fixes.
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
    return x_new, err, k7, (k1, k3, k4, k5, k6, k7)


def _error_norm(x, x_new, err, rel_tol, abs_tol):
    """RMS of err / (abs_tol + rel_tol * max(|x|, |x_new|)), summed in order."""
    acc = 0.0
    for xc, nc, ec in zip(x, x_new, err):
        q = ec / (abs_tol + rel_tol * max(abs(xc), abs(nc)))
        acc += q * q
    return math.sqrt(acc / len(err))


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


def _locate_event(f, x, k1, h, g, sign_before, dense, x_new):
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
            values[i] = g(_dp_step(f, x, k1, math.ldexp(i, -depth) * h)[0])
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
    theta, bisections = _bisect_event(f, x, k1, h, g, sign_before)
    return theta, len(values) + bisections, True


def _bisect_event(f, x, k1, h, g, sign_before):
    """Fraction theta of the step at which g crosses zero, to 1e-12 in time.

    The reference `_locate_event` reproduces, and its fallback.  Returns
    (theta, number of DP steps taken).
    """
    lo, hi = 0.0, 1.0
    bisections = 0
    while (hi - lo) * h > _EVENT_TIME_TOL:
        mid = 0.5 * (lo + hi)
        bisections += 1
        x_mid = _dp_step(f, x, k1, mid * h)[0]
        val = g(x_mid)
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
    f, x = model.rhs, np.asarray(x, dtype=float).tolist()
    x_new, err, _, _ = _dp_step(f, x, f(x), h)
    return np.array(x_new), _error_norm(x, x_new, err, rel_tol, abs_tol)


def last_state_before_crossing(model, x, x_new, h, g):
    """Last state before g changes sign in the DP step x -> x_new of size h:
    the step is re-taken from x and the sign change located like a PWL event
    (`_locate_event`, to a cell 2^-K h <= 1e-12).  Returns the true DP step
    to one cell before it (x itself at 0) and the number of DP steps taken."""
    f = model.rhs
    x, x_new = (np.asarray(s, dtype=float).tolist() for s in (x, x_new))
    k1 = f(x)
    dense = _dense_output(x, x_new, h, _dp_step(f, x, k1, h)[3])
    theta, steps, _ = _locate_event(f, x, k1, h, g, 1 if g(x) > 0 else -1, dense, x_new)
    cell = 1.0
    while cell * h > _EVENT_TIME_TOL:
        cell *= 0.5
    if theta <= cell:
        return np.array(x), 1 + steps
    return np.array(_dp_step(f, x, k1, (theta - cell) * h)[0]), 2 + steps


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
