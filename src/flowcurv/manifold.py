"""Flow-curvature manifold machinery.

The slow invariant manifold of an n-dimensional flow is carried by the zero
set of phi = det(d_1, ..., d_n), the determinant of the first n trajectory
derivatives.  Its Lie derivative along the flow is the same determinant with
the last column advanced one order, and flow-invariance is certified in the
Darboux sense through the trace cofactor: wherever the Jacobian is
stationary, L_V phi = Tr(J) phi holds identically.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .geometry import det_scaled, vecdot, vecnorm
from .integrate import last_state_before_crossing
from .jets import derivative_stack
from .models import (magneto_equilibrium, newton, point_regions, region_labels,
                     solve_columns)

__all__ = [
    "ManifoldSample", "ZeroSet", "FactorReport",
    "phi", "lie_phi", "phi_scaled", "darboux_residual", "manifold_sample",
    "grid_states", "zero_set_grid", "zero_crossings_on_trajectory", "factor_check",
]


def phi(model, x, region=None):
    """Curvature-of-the-flow determinant det(d_1, ..., d_n) at `x`.

    Accepts a single state of shape (n,) or a batch of shape (n, npts).
    Total: degenerate stacks simply give phi = 0, which is the signal of
    interest.
    """
    stack = derivative_stack(model, x, model.dim, region=region)
    return det_scaled(stack.matrix())


def lie_phi(model, x, region=None):
    """Lie derivative of phi along the flow: the determinant with X^(n+1) last."""
    n = model.dim
    stack = derivative_stack(model, x, n + 1, region=region)
    lie = det_scaled(stack.matrix(count=n + 1))[..., 1]
    return float(lie) if lie.ndim == 0 else lie


def phi_scaled(model, x, region=None):
    """|phi| normalized by the product of derivative norms (Hadamard scale).

    Dimensionless in [0, 1]; the natural "how zero is phi here" measure when
    raw determinants span hundreds of orders of magnitude across models.
    0.0 where a derivative vanishes, NaN where phi or the scale is not
    finite (`DerivStack.hadamard_scaled`).
    """
    stack = derivative_stack(model, x, model.dim, region=region)
    return stack.hadamard_scaled(det_scaled(stack.matrix()))


def darboux_residual(model, x, region=None):
    """|L_V phi - Tr(J) phi| / (1 + |Tr(J) phi|).

    Near zero exactly where the Jacobian is stationary along the flow: all
    of a PWL region, any linear system, and the vicinity of a cubic model's
    singular approximation.  This is `manifold_sample(...).cofactor_residual`.
    """
    return manifold_sample(model, x, region=region).cofactor_residual


@dataclass(frozen=True)
class ManifoldSample:
    """phi, its Lie derivative, and the Darboux cofactor residual.

    Floats for a single state; (npts,) arrays (and a per-point region
    array) for a batch.
    """

    phi: float
    lie: float
    cofactor_residual: float
    region: object = None


def manifold_sample(model, x, region=None):
    """phi, L_V phi and |L_V phi - Tr(J) phi| / (1 + |Tr(J) phi|) at `x`.

    Accepts a single state of shape (n,) or a batch of shape (n, npts).
    One extended-precision stack X^(1)..X^(n+1) gives both determinants
    through one shared elimination: the identity's cancellation sits far
    below double rounding when the derivative columns are stiff and nearly
    parallel.  Tr(J) sums the diagonal Jacobian expressions in the stack's
    region, which is pinned by `region` or classified per point.
    """
    x = np.asarray(x, dtype=float)
    n = model.dim
    stack = derivative_stack(model, x.astype(np.longdouble), n + 1, region=region)
    dets = det_scaled(stack.matrix(count=n + 1))
    p, lie = dets[..., 0], dets[..., 1]
    # an overflowing state or determinant gives a non-finite row without warnings
    with np.errstate(over="ignore", invalid="ignore"):
        tr, *rest = ex.evaluate([model.jac_exprs[i][i] for i in range(n)], x, stack.region)
        for term in rest:
            tr = tr + term
        resid = np.abs(lie - tr * p) / (1.0 + np.abs(tr * p))
    if x.ndim == 1:
        p, lie, resid = float(p), float(lie), float(resid)
    return ManifoldSample(phi=p, lie=lie, cofactor_residual=resid, region=stack.region)


@dataclass(frozen=True)
class ZeroSet:
    """Refined phi = 0 points, from grid edges or along a trajectory.

    Grid-edge points satisfy |phi| <= tol_rel * scale, with scale the larger
    |phi| at the ends of the bracket refined: the edge's grid nodes, or, for
    an edge split at a PWL breakpoint, the ends of its single-region piece.
    There are two exceptions.  A grid node or trajectory sample where phi is
    exactly zero is returned as it is.  A point whose bracket reached the floating-point
    width first (phi then changes sign between adjacent floats) is kept
    only when both ends of that final bracket lie in the same PWL region.  A sign change that survives only across a region
    boundary is a jump of phi, not a zero, at every tolerance; such edges
    are dropped and counted in `metadata["dropped_jumps"]`.
    """

    points: np.ndarray              # (npts, n)
    phi_values: np.ndarray          # (npts,)
    regions: tuple = ()
    degenerate: bool = False
    n_nonfinite: int = 0
    metadata: dict = field(default_factory=dict)

    def __len__(self):
        return self.points.shape[0]


_CHUNK = 4096  # most points per batched phi call; bounds the stacks' memory
_ITP_SLACK = 6  # rounds that ITP may spend beyond bisection on one bracket
_REFINE_ROUNDS = 90  # rounds at most; a bracket reaches one float within 52 + _ITP_SLACK


def _phi_chunked(model, states):
    """Batched phi over the columns of `states`, `_CHUNK` points at a time."""
    npts = states.shape[1]
    values = np.empty(npts)
    for start in range(0, npts, _CHUNK):
        sl = slice(start, min(start + _CHUNK, npts))
        values[sl] = phi(model, states[:, sl])
    return values


def _refine_edges(model, p_lo, p_hi, f_lo, f_hi, tol_rel):
    """Locate one zero of phi on every bracketed edge [p_lo, p_hi], in lockstep.

    Each edge is parametrized by t in [0, 1] and follows the single-edge
    rule below.  Every batched call is elementwise, so an edge's iterates
    depend only on its own values, and each result equals refining that
    edge alone, bit for bit.

    1. Split.  An edge whose end nodes lie in different PWL regions is
       bisected on the region labels alone (no phi) until the region change
       is one float wide in t, and phi is evaluated on both sides of it.
       The lo-side piece is refined if phi changes sign or vanishes on it;
       otherwise the rest of the edge is, or is split again if its ends
       still lie in different regions.  An edge with no sign change inside
       one region is a jump of phi, and is dropped unrefined.
    2. Refine.  The bracket [a, b] is closed by ITP (Oliveira & Takahashi
       2021, ACM TOMS 47(1)): regula falsi, truncated towards the midpoint
       by 0.2 (b - a)^2 / w0 and projected into bisection's minmax interval,
       so a bracket of initial width w0 reaches one float in at most
       `_ITP_SLACK` rounds more than bisection.  An edge stops once
       |phi| <= tol_rel * max(|phi(a)|, |phi(b)|) of its initial
       bracket, and is dropped on a non-finite phi.
    3. Fallback.  A bracket one float wide in t (or still open after
       `_REFINE_ROUNDS` rounds) ends at its midpoint, and is dropped as a
       jump when its two ends lie in different PWL regions.

    Returns the edge parameters t, phi there, each edge's tolerance, the
    mask of edges kept, and counters.
    """
    m = len(f_lo)
    step = p_hi - p_lo
    eps = np.finfo(float).eps
    a, b, fa, fb = np.zeros(m), np.ones(m), f_lo.copy(), f_hi.copy()
    t, f_t = np.full(m, 0.5), np.zeros(m)
    jumps, nonfinite = np.zeros(m, dtype=bool), np.zeros(m, dtype=bool)
    phi_points = split_edges = 0

    def at(edges, ts):  # states (n, len(edges))
        return (p_lo[edges] + ts[:, None] * step[edges]).T

    def phi_at(edges, ts):
        return _phi_chunked(model, at(edges, ts))

    if model.pwl_args and m:
        hi_labels = region_labels(model, p_hi.T)
        pending = np.flatnonzero((region_labels(model, p_lo.T) != hi_labels).any(axis=0))
        split_edges = pending.size
        while pending.size:
            start = region_labels(model, at(pending, a[pending]))
            lo, hi = a[pending], np.ones(pending.size)
            open_ = np.flatnonzero(hi - lo > eps)
            while open_.size:  # labels only: lo keeps the start's region, hi not
                mid = 0.5 * (lo[open_] + hi[open_])
                same = (region_labels(model, at(pending[open_], mid))
                        == start[:, open_]).all(axis=0)
                lo[open_[same]] = mid[same]
                hi[open_[~same]] = mid[~same]
                open_ = open_[hi[open_] - lo[open_] > eps]
            k = pending.size
            sides = phi_at(np.concatenate([pending, pending]), np.concatenate([lo, hi]))
            phi_points += 2 * k
            f_l, f_h = sides[:k], sides[k:]
            bad = ~(np.isfinite(f_l) & np.isfinite(f_h))
            nonfinite[pending[bad]] = True
            # a side where phi is exactly 0 becomes a zero-width bracket there
            on_lo = ~bad & ((f_l == 0.0) | (np.sign(f_l) * np.sign(fa[pending]) < 0))
            e = pending[on_lo]
            a[e] = np.where(f_l[on_lo] == 0.0, lo[on_lo], a[e])
            b[e], fb[e] = lo[on_lo], f_l[on_lo]
            rest = ~bad & ~on_lo
            e, hi, f_h = pending[rest], hi[rest], f_h[rest]
            a[e], fa[e] = hi, f_h
            b[e] = np.where(f_h == 0.0, hi, b[e])
            more = (f_h != 0.0) & (region_labels(model, at(e, hi)) != hi_labels[:, e]).any(axis=0)
            jumps[e[~more & (np.sign(f_h) * np.sign(fb[e]) > 0)]] = True
            pending = e[more]

    target = tol_rel * np.maximum(np.abs(fa), np.abs(fb))
    live = np.flatnonzero(~(jumps | nonfinite))
    wide = b[live] - a[live] > eps
    active, unconverged = live[wide], [live[~wide]]
    w0 = b[active] - a[active]
    kappa, budget = np.zeros(m), np.zeros(m)
    kappa[active] = 0.2 / w0
    # budget = ITP's projection radius + half the width: 2^(_ITP_SLACK - 1)
    # times the least power of two >= w0, halved after every round
    mant, expo = np.frexp(w0)
    budget[active] = np.ldexp(np.where(mant == 0.5, 0.5, 1.0), expo + _ITP_SLACK - 1)
    rounds = 0
    while active.size and rounds < _REFINE_ROUNDS:
        rounds += 1
        phi_points += active.size
        lo, hi, f_a, f_b = a[active], b[active], fa[active], fb[active]
        w = hi - lo
        half = 0.5 * (lo + hi)
        x_f = lo + w * (f_a / (f_a - f_b))
        sigma = np.sign(half - x_f)
        delta = kappa[active] * w * w
        x_t = np.where(delta <= np.abs(half - x_f), x_f + sigma * delta, half)
        r = np.maximum(budget[active] - 0.5 * w, 0.0)
        x = np.where(np.abs(x_t - half) <= r, x_t, half - sigma * r)
        f = phi_at(active, x)
        t[active], f_t[active] = x, f
        budget[active] *= 0.5
        finite = np.isfinite(f)
        nonfinite[active[~finite]] = True
        still = finite & (np.abs(f) > target[active])
        active, x, f = active[still], x[still], f[still]
        same = (f > 0) == (fa[active] > 0)
        a[active[same]], fa[active[same]] = x[same], f[same]
        b[active[~same]], fb[active[~same]] = x[~same], f[~same]
        wide = b[active] - a[active] > eps
        unconverged.append(active[~wide])
        active = active[wide]
    unconverged = np.concatenate(unconverged + [active])
    phi_points += unconverged.size
    t[unconverged] = 0.5 * (a[unconverged] + b[unconverged])
    f_t[unconverged] = phi_at(unconverged, t[unconverged])
    nonfinite[unconverged[~np.isfinite(f_t[unconverged])]] = True
    if model.pwl_args and unconverged.size:
        jumps[unconverged] = (region_labels(model, at(unconverged, a[unconverged]))
                              != region_labels(model, at(unconverged, b[unconverged]))).any(axis=0)
    jumps &= ~nonfinite
    counts = {"split_edges": int(split_edges), "refine_rounds": rounds,
              "refine_phi_points": phi_points, "unconverged": int(unconverged.size),
              "nonfinite_refinements": int(nonfinite.sum()),
              "dropped_jumps": int(jumps.sum())}
    return t, f_t, target, ~(nonfinite | jumps), counts


def grid_states(dim, axes, slice_values, start=0, stop=None):
    """The states of a coordinate-aligned grid, shape (dim, npts), and its shape.

    `axes` maps coordinate indices to (lo, hi, count) node ranges, flattened
    in 'ij' order; every other coordinate takes its `slice_values` entry
    (default 0).  `start` and `stop` pick a range of the flattened nodes
    (all by default), whose states alone are made.
    """
    axis_items = sorted(axes.items())
    shape = tuple(count for _, (_, _, count) in axis_items)
    nodes = np.arange(start, math.prod(shape) if stop is None else stop)
    states = np.empty((dim, len(nodes)))
    for i in range(dim):
        states[i] = slice_values.get(i, 0.0)
    for (idx, (lo, hi, count)), k in zip(axis_items, np.unravel_index(nodes, shape)):
        states[idx] = np.linspace(lo, hi, count)[k]
    return states, shape


def zero_set_grid(model, axes, slice_values=None, tol_rel=1e-9):
    """Extract the phi = 0 point cloud over a coordinate-aligned grid.

    `axes` maps 2 or 3 coordinate indices to (lo, hi, count) ranges; the
    remaining coordinates are fixed at `slice_values` (default 0).  Each
    grid edge whose end nodes carry opposite phi signs yields at most one
    point, where |phi| drops below tol_rel * (bracket scale).  An
    edge whose ends lie in different PWL regions is first split at the
    region change, located on the labels alone; if no single-region piece
    changes sign, phi jumps there rather than vanishing, and the edge is
    dropped unrefined.  The brackets are then closed by ITP, a safeguarded
    regula falsi that needs at most a few rounds more than bisection (see
    `_refine_edges`).  All edges are refined in lockstep: each round
    evaluates phi once, batched over the edges still open.  Batched and
    single-point phi agree bit for bit, so every point is the one that
    refining its edge alone gives.

    An edge whose bracket shrinks to one float without meeting the
    tolerance has the two ends of its final bracket classified, and is
    dropped as a jump if they fall in different PWL regions.  A grid node
    where phi is exactly 0.0 is returned as a point of its own.  The result
    is a point cloud for plotting, not a meshed surface.  Besides `axes` and
    `slice`, `metadata` holds the counters `edges_bracketed`, `split_edges`
    (edges whose end nodes lie in different regions), `refine_rounds`,
    `refine_phi_points` (points passed to batched phi, two per split
    included), `unconverged`, `nonfinite_refinements`, `dropped_jumps` and
    `exact_zero_nodes`.
    """
    n = model.dim
    if not 0 <= tol_rel < math.inf:
        raise ValueError("tolerances must be finite and nonnegative")
    axis_items = sorted(axes.items())
    if len(axis_items) not in (2, 3):
        raise ValueError("grid must span 2 or 3 coordinates")
    slice_values = dict(slice_values or {})
    axis_set = {i for i, _ in axis_items}
    if axis_set & set(slice_values):
        raise ValueError("a coordinate cannot be both a grid axis and a slice value")
    if not (axis_set | set(slice_values)) <= set(range(n)):
        raise ValueError("axis or slice index out of range")
    for i in set(range(n)) - axis_set - set(slice_values):
        slice_values[i] = 0.0  # documented default slice for >3-D models
    for idx, (lo, hi, count) in axis_items:
        if count < 2:
            raise ValueError(f"axis x{idx + 1} needs at least 2 nodes")
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("grid ranges must be finite")

    states, shape = grid_states(n, axes, slice_values)
    npts = states.shape[1]
    values = _phi_chunked(model, states)
    finite = np.isfinite(values)
    n_nonfinite = int(npts - finite.sum())
    values_grid = values.reshape(shape)
    finite_grid = finite.reshape(shape)
    node = np.arange(npts).reshape(shape)

    # flat node indices of both ends of every sign-changing edge, axis by axis
    edge_lo, edge_hi = [], []
    for axis in range(len(shape)):
        sl_lo = tuple(slice(0, -1) if a == axis else slice(None) for a in range(len(shape)))
        sl_hi = tuple(slice(1, None) if a == axis else slice(None) for a in range(len(shape)))
        crossing = (finite_grid[sl_lo] & finite_grid[sl_hi]
                    & (np.sign(values_grid[sl_lo]) * np.sign(values_grid[sl_hi]) < 0))
        edge_lo.append(node[sl_lo][crossing])
        edge_hi.append(node[sl_hi][crossing])
    edge_lo, edge_hi = np.concatenate(edge_lo), np.concatenate(edge_hi)

    f_lo, f_hi = values[edge_lo], values[edge_hi]
    p_lo, p_hi = states[:, edge_lo].T, states[:, edge_hi].T
    t, f_mid, _, keep, counts = _refine_edges(model, p_lo, p_hi, f_lo, f_hi, tol_rel)
    points = p_lo[keep] + t[keep, None] * (p_hi - p_lo)[keep]

    zero_nodes = np.flatnonzero(values == 0.0)
    pts = np.concatenate([points, states[:, zero_nodes].T])
    pvals = np.concatenate([f_mid[keep], values[zero_nodes]])
    order = np.lexsort(pts.T[::-1])
    pts, pvals = pts[order], pvals[order]
    regions = point_regions(model, pts.T)
    metadata = {"axes": dict(axes), "slice": dict(slice_values),
                "edges_bracketed": int(edge_lo.size), **counts,
                "exact_zero_nodes": int(zero_nodes.size)}
    return ZeroSet(points=pts, phi_values=pvals, regions=regions,
                   n_nonfinite=n_nonfinite, metadata=metadata)


def zero_crossings_on_trajectory(model, traj):
    """States where phi changes sign along an integrated trajectory.

    A sign change between samples k and k + 1 is located inside the DP step
    that joined them, on true steps from x_k (h = t_{k+1} - t_k, ending at
    the stored x_{k+1}), as `integrate` locates a PWL event; the point is
    the last state before it (`integrate.last_state_before_crossing`), and
    nothing is re-integrated.  A sample where phi is exactly 0.0 is a point
    of its own, as a grid node is in `zero_set_grid`, and is counted in
    `metadata["exact_zero_samples"]`; points come in time order.  A sign
    change between PWL regions, where phi jumps, warns and is flagged in
    `metadata["straddle"]`, one entry per point; `metadata["dp_steps"]`
    counts the DP steps taken.  A trajectory with |phi| <= 1e-12 max |phi|
    at every sample (for instance a fixed point) returns an empty,
    degenerate-flagged set, whose metadata holds the same three keys.
    """
    times, states = np.asarray(traj.times), np.asarray(traj.states)
    values = phi(model, states.T) if len(times) > 1 else np.zeros(len(times))
    scale = np.max(np.abs(values), initial=0.0)
    if scale == 0.0 or np.all(np.abs(values) <= 1e-12 * scale):
        return ZeroSet(points=np.empty((0, model.dim)), phi_values=np.empty(0),
                       degenerate=True,
                       metadata={"straddle": (), "dp_steps": 0, "exact_zero_samples": 0})
    labels = point_regions(model, states.T)
    sign = np.where(np.isfinite(values), np.sign(values), 0.0)
    points, straddle, dp_steps = [], [], 0
    zero_samples = np.flatnonzero(values == 0.0).tolist()
    changes = np.flatnonzero(sign[:-1] * sign[1:] < 0).tolist()
    # (k, False): sample k itself; (k, True): a sign change between k and k + 1
    for k, change in sorted([(k, False) for k in zero_samples] + [(k, True) for k in changes]):
        if not change:
            points.append(states[k])
            straddle.append(False)
            continue
        straddle.append(bool(labels) and labels[k] != labels[k + 1])
        if straddle[-1]:
            warnings.warn(
                f"phi sign change between t={times[k]:.6g} and t={times[k+1]:.6g} "
                f"straddles PWL regions {labels[k]!r}/{labels[k + 1]!r}; "
                "phi is discontinuous there")
        x_lo, steps = last_state_before_crossing(
            model, states[k], states[k + 1], float(times[k + 1] - times[k]),
            lambda x: float(phi(model, np.array(x))))
        points.append(x_lo)
        dp_steps += steps
    pts = np.array(points).reshape(-1, model.dim)
    return ZeroSet(points=pts, phi_values=phi(model, pts.T),
                   regions=point_regions(model, pts.T),
                   metadata={"straddle": tuple(straddle), "dp_steps": dp_steps,
                             "exact_zero_samples": len(zero_samples)})


# ---------------------------------------------------------------------------
# Singular approximation of a slow/fast model
# ---------------------------------------------------------------------------

def _singular_points(model, samples, rng):
    """Points on the singular approximation, from `samples` random draws.

    The split is the model's `slowfast_defaults`: the `fast` components, one
    `box` range per slow coordinate, and a `box_center` that is None or
    "equilibrium" (the box is then shifted by the slow coordinates of
    `magneto_equilibrium`).  Each draw takes the slow variables uniformly in
    the box, then four random fast seeds to try after a zero one.  Seed
    round s runs capped Newton on every draw still unsolved, batched.
    Returns the solved points in draw order, shape (count, n).
    """
    defaults, n = model.slowfast_defaults, model.dim
    fast = list(defaults["fast"])
    slow = [i for i in range(n) if i not in fast]
    bounds = np.array([*defaults["box"]] + [(-3.0, 3.0)] * (4 * len(fast)), dtype=float)
    draws = rng.uniform(bounds[:, 0], bounds[:, 1], (samples, len(bounds)))
    x0, seeds = np.zeros((n, samples)), np.zeros((5, len(fast), samples))
    x0[slow] = draws[:, :len(slow)].T
    seeds[1:] = draws[:, len(slow):].reshape(samples, 4, len(fast)).transpose(1, 2, 0)
    if defaults["box_center"] == "equilibrium":
        x0[slow] += np.delete(magneto_equilibrium(model), fast)[:, None]

    # only the fast components of the rhs and the fast x fast Jacobian block
    rhs = [model.rhs_exprs[i] for i in fast]
    jac = [model.jac_exprs[i][j] for i in fast for j in fast]

    def capped(x):
        f = ex.evaluate(rhs, x).T
        converged = vecnorm(f) <= 1e-12 * (1.0 + vecnorm(x.T))
        step = solve_columns(ex.evaluate(jac, x).T.reshape(-1, len(fast), len(fast)), f)
        limit, norm = 1.0 + vecnorm(x[fast].T), vecnorm(step)
        cap = norm > limit
        step[cap] *= (limit[cap] / norm[cap])[:, None]
        x[fast] -= np.where(converged, 0.0, step.T)
        return x, np.where(converged, 1, np.where(np.isnan(norm), -1, 0))

    solved = np.zeros(samples, dtype=bool)
    for seed in seeds:
        todo = np.flatnonzero(~solved)
        x0[np.ix_(fast, todo)] = seed[:, todo]
        x0[:, todo], status = newton(x0[:, todo], capped, 80)
        solved[todo] = status == 1
    return x0[:, solved].T


# ---------------------------------------------------------------------------
# Darboux factor / first-integral detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactorReport:
    """Outcome of testing a candidate Darboux factor against phi and L_V."""

    zero_set_count: int
    phi_scaled_max: float | None     # max scaled |phi| on the factor's zero set
    cofactor_coeffs: np.ndarray      # affine + quadratic basis coefficients
    cofactor_basis: tuple
    cofactor_fit_residual: float     # relative RMS of the polynomial fit
    lie_factor_max: float            # max |L_V factor| over the box (first-integral test)
    first_integral: bool
    invariant: bool


def _poly_basis(n):
    names = ["1"] + [f"x{i + 1}" for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    names += [f"x{i + 1}*x{j + 1}" for i, j in pairs]
    return names, pairs


def _sample_count(samples):
    if not isinstance(samples, (int, np.integer)) or samples < 0:
        raise ValueError(f"samples must be a nonnegative integer, got {samples!r}")
    return int(samples)


def factor_check(model, factor, box, samples=200, seed=0):
    """Test whether `factor` (an expression string) is a Darboux factor.

    Verifies that phi vanishes (in the Hadamard-scaled sense) on the
    factor's sampled zero set, and estimates the cofactor K in
    L_V(factor) = K * factor by pointwise division away from the zero set,
    fitting an affine-plus-quadratic polynomial ansatz.  K identically zero
    flags a first integral.  The zero set is sampled by projecting `samples`
    random box points along the factor's gradient, all at once (`newton`).
    """
    n = model.dim
    samples = _sample_count(samples)
    var_names = {f"x{i + 1}": i for i in range(n)}
    node, _ = ex.parse_expression(factor, var_names, model.params)
    grads = [node.diff(i) for i in range(n)]

    def rows(nodes, x):  # contiguous rows (npts, len(nodes)), as at each point alone
        return np.ascontiguousarray(ex.evaluate(nodes, x).T)

    rng = np.random.default_rng(seed)
    box = [tuple(b) for b in box]
    if len(box) != n:
        raise ValueError("box must give one (lo, hi) range per coordinate")

    def sample_points(count):
        return rng.uniform(*np.array(box, dtype=float).T, (count, n)).T

    def project(x):  # one gradient-flow Newton step towards the factor's zero set
        v, g = ex.evaluate([node], x)[0], rows(grads, x)
        gnorm2 = vecdot(g, g)
        x = x - v * g.T / np.where(gnorm2 == 0.0, 1.0, gnorm2)
        converged = np.abs(ex.evaluate([node], x)[0]) <= 1e-12 * (1.0 + np.abs(v))
        return x, np.where(gnorm2 == 0.0, -1, converged.astype(int))

    x, status = newton(sample_points(samples), project, 80)
    zero_points = x[:, (status == 1) & np.isfinite(x).all(axis=0)]

    phi_scaled_max = None
    if zero_points.size:
        phi_scaled_max = float(np.max(phi_scaled(model, zero_points)))

    # cofactor estimate K = L_V(factor)/factor away from the zero set
    box_points = sample_points(max(samples, 50))
    box_values = ex.evaluate([node], box_points)[0]
    factor_scale = np.max(np.abs(box_values))
    if factor_scale == 0.0:
        raise ValueError("factor is identically zero on the sampling box")
    v = model.velocity(box_points)
    # exact summation: a first integral must cancel to a true zero
    lie_values = np.array([math.fsum(terms) for terms in rows(grads, box_points) * v.T])
    lie_max = float(np.max(np.abs(lie_values)))
    vel_scale = np.max(vecnorm(v.T))
    first_integral = lie_max <= 1e-9 * (1.0 + factor_scale) * (1.0 + vel_scale)

    keep = np.abs(box_values) >= 0.05 * factor_scale
    pts = box_points[:, keep]
    K = lie_values[keep] / box_values[keep]
    basis_names, pairs = _poly_basis(n)
    A = np.column_stack([np.ones(len(K)), *pts] + [pts[i] * pts[j] for i, j in pairs])
    coeffs, *_ = np.linalg.lstsq(A, K, rcond=None)
    fitted = A @ coeffs
    k_scale = max(1.0, float(np.max(np.abs(K))))
    fit_residual = float(np.sqrt(np.mean((K - fitted) ** 2))) / k_scale

    invariant = fit_residual <= 1e-6 and (
        phi_scaled_max is None or phi_scaled_max <= 1e-6)
    return FactorReport(
        zero_set_count=zero_points.shape[1],
        phi_scaled_max=phi_scaled_max, cofactor_coeffs=coeffs,
        cofactor_basis=tuple(basis_names), cofactor_fit_residual=fit_residual,
        lie_factor_max=lie_max, first_integral=first_integral,
        invariant=invariant or first_integral)
