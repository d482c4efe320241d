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
from .jets import derivative_stack
from .models import magneto_equilibrium, newton, point_regions, solve_columns

__all__ = [
    "ManifoldSample", "ZeroSet", "SlowFastSplit", "GspSummary", "FactorReport",
    "phi", "lie_phi", "phi_scaled", "darboux_residual", "manifold_sample",
    "grid_states", "zero_set_grid", "zero_crossings_on_trajectory",
    "default_split", "gsp_order0_residual", "factor_check",
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
    """
    stack = derivative_stack(model, x, model.dim, region=region)
    value = np.abs(det_scaled(stack.matrix()))
    norms = np.linalg.norm(stack.derivs, axis=1)  # (n,) or (n, npts)
    scale = np.prod(norms, axis=0)
    return np.where(scale > 0.0, value / np.where(scale > 0.0, scale, 1.0), 0.0)[()]


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

    point: np.ndarray
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
    tr = model.jac_exprs[0][0].eval(x, stack.region)
    for i in range(1, n):
        tr = tr + model.jac_exprs[i][i].eval(x, stack.region)
    resid = np.abs(lie - tr * p) / (1.0 + np.abs(tr * p))
    if x.ndim == 1:
        p, lie, resid = float(p), float(lie), float(resid)
    return ManifoldSample(point=x, phi=p, lie=lie, cofactor_residual=resid,
                          region=stack.region)


@dataclass(frozen=True)
class ZeroSet:
    """Refined phi = 0 points with their provenance.

    Grid-edge points satisfy |phi| <= tol_abs + tol_rel * scale with scale
    the larger |phi| of their bracketing grid nodes, with two exceptions:
    a grid node where phi is exactly zero is returned as it is, and a point
    whose bisection hit the floating-point width of the bracket first (phi
    is then sign-changing between adjacent floats) is kept only when both
    ends of that final bracket lie in the same PWL region.  Sign changes
    that survive only across a region boundary are jumps of phi, not zeros;
    they are dropped and counted in `metadata["dropped_jumps"]`.
    """

    points: np.ndarray              # (npts, n)
    phi_values: np.ndarray          # (npts,)
    regions: tuple = ()
    provenance: str = "grid-edge"
    degenerate: bool = False
    n_nonfinite: int = 0
    metadata: dict = field(default_factory=dict)

    def __len__(self):
        return self.points.shape[0]


def _phi_chunked(model, states, chunk):
    """Batched phi over the columns of `states`, at most `chunk` at a time."""
    npts = states.shape[1]
    values = np.empty(npts)
    for start in range(0, npts, chunk):
        sl = slice(start, min(start + chunk, npts))
        values[sl] = phi(model, states[:, sl])
    return values


def _refine_edges(model, p_lo, p_hi, f_lo, target, chunk, max_iter=90):
    """Bisect every bracketed edge [p_lo, p_hi] in lockstep.

    Each round evaluates phi once, batched over the edges still open.  Each
    edge follows the single-edge rule: it stops once |phi(mid)| <= target,
    is dropped on a non-finite phi, and otherwise halves its bracket towards
    the sign change until the bracket is one float wide or `max_iter` rounds
    pass.  Such an unconverged edge ends at the midpoint of its final
    bracket, and is dropped as a jump when the bracket's ends lie in
    different PWL regions.  Returns the points, their phi, the mask of edges
    kept, and counters.
    """
    m = len(f_lo)
    step = p_hi - p_lo
    lo, hi = np.zeros(m), np.ones(m)
    mids, f_mid = np.empty(m), np.empty(m)
    eps = np.finfo(float).eps

    def at(edges, t):
        return p_lo[edges] + t[:, None] * step[edges]

    def evaluate(edges):
        mids[edges] = 0.5 * (lo[edges] + hi[edges])
        f_mid[edges] = _phi_chunked(model, at(edges, mids[edges]).T, chunk)
        return f_mid[edges]

    active, unconverged = np.arange(m), []
    rounds = phi_points = 0
    while active.size and rounds < max_iter:
        rounds += 1
        phi_points += active.size
        f = evaluate(active)
        still = np.isfinite(f) & (np.abs(f) > target[active])
        active, f = active[still], f[still]
        same = (f > 0) == (f_lo[active] > 0)
        lo[active[same]] = mids[active[same]]
        hi[active[~same]] = mids[active[~same]]
        wide = hi[active] - lo[active] > eps
        unconverged.append(active[~wide])
        active = active[wide]
    unconverged = np.concatenate(unconverged + [active])
    phi_points += unconverged.size
    evaluate(unconverged)

    nonfinite = ~np.isfinite(f_mid)
    jumps = np.zeros(m, dtype=bool)
    if model.regions is not None and unconverged.size:
        differ = (np.asarray(model.regions(at(unconverged, lo[unconverged]).T))
                  != np.asarray(model.regions(at(unconverged, hi[unconverged]).T)))
        jumps[unconverged] = np.atleast_2d(differ).any(axis=0)
    jumps &= ~nonfinite
    counts = {"refine_rounds": rounds, "refine_phi_points": phi_points,
              "unconverged": int(unconverged.size),
              "nonfinite_refinements": int(nonfinite.sum()),
              "dropped_jumps": int(jumps.sum())}
    return p_lo + mids[:, None] * step, f_mid, ~(nonfinite | jumps), counts


def grid_states(dim, axes, slice_values):
    """The states of a coordinate-aligned grid, shape (dim, npts), and its shape.

    `axes` maps coordinate indices to (lo, hi, count) node ranges, flattened
    in 'ij' order; every other coordinate takes its `slice_values` entry
    (default 0).
    """
    axis_items = sorted(axes.items())
    grids = [np.linspace(lo, hi, count) for _, (lo, hi, count) in axis_items]
    mesh = np.meshgrid(*grids, indexing="ij")
    states = np.empty((dim, mesh[0].size))
    for i in range(dim):
        states[i] = slice_values.get(i, 0.0)
    for (idx, _), m in zip(axis_items, mesh):
        states[idx] = m.ravel()
    return states, mesh[0].shape


def zero_set_grid(model, axes, slice_values=None, tol_abs=0.0, tol_rel=1e-9,
                  chunk=4096):
    """Extract the phi = 0 point cloud over a coordinate-aligned grid.

    `axes` maps 2 or 3 coordinate indices to (lo, hi, count) ranges; the
    remaining coordinates are fixed at `slice_values` (default 0).  Grid
    edges whose endpoints carry opposite phi signs are bisected until |phi|
    drops below tol_abs + tol_rel * (bracket scale).  All bracketed edges
    are refined in lockstep: each bisection round evaluates phi once,
    batched over the edges still open, in slices of at most `chunk` points
    (the same bound as the grid evaluation).  Batched and single-point phi
    agree bit for bit, so every point is the one that bisecting its edge
    alone gives.

    An edge whose bracket shrinks to one float without meeting the
    tolerance has the two ends of its final bracket classified; if they
    fall in different PWL regions, phi jumps there rather than vanishing,
    and the point is dropped.  A grid node where phi is exactly 0.0 is
    returned as a point of its own.  The result is a point cloud for
    plotting, not a meshed surface.  Besides `axes` and `slice`, `metadata`
    holds the counters `edges_bracketed`, `refine_rounds`,
    `refine_phi_points` (points passed to batched phi), `unconverged`,
    `nonfinite_refinements`, `dropped_jumps` and `exact_zero_nodes`.
    """
    n = model.dim
    if not (0 <= tol_abs < math.inf and 0 <= tol_rel < math.inf):
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
    values = _phi_chunked(model, states, chunk)
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
    target = tol_abs + tol_rel * np.maximum(np.abs(f_lo), np.abs(f_hi))
    points, f_mid, keep, counts = _refine_edges(
        model, states[:, edge_lo].T, states[:, edge_hi].T, f_lo, target, chunk)

    zero_nodes = np.flatnonzero(values == 0.0)
    pts = np.concatenate([points[keep], states[:, zero_nodes].T])
    pvals = np.concatenate([f_mid[keep], values[zero_nodes]])
    order = np.lexsort(pts.T[::-1])
    pts, pvals = pts[order], pvals[order]
    regions = point_regions(model, pts.T)
    metadata = {"axes": dict(axes), "slice": dict(slice_values),
                "edges_bracketed": int(edge_lo.size), **counts,
                "exact_zero_nodes": int(zero_nodes.size)}
    return ZeroSet(points=pts, phi_values=pvals, regions=regions,
                   provenance="grid-edge", n_nonfinite=n_nonfinite,
                   metadata=metadata)


def zero_crossings_on_trajectory(model, traj, time_tol=1e-10,
                                 degenerate_rtol=1e-12):
    """States where phi changes sign along an integrated trajectory.

    Each bracketed sign change is refined by bisection in time, re-running
    the integrator over the shrinking subinterval (the trajectory stores no
    interpolant).  A trajectory with phi ~ 0 at every sample (for instance a
    fixed point) returns an empty, degenerate-flagged set.
    """
    from .integrate import integrate  # local import: integrate pulls no manifold code

    times = np.asarray(traj.times)
    states = np.asarray(traj.states)
    if len(times) < 2:
        return ZeroSet(points=np.empty((0, model.dim)), phi_values=np.empty(0),
                       provenance="trajectory", degenerate=True)
    values = phi(model, states.T)
    scale = np.max(np.abs(values))
    if scale == 0.0 or np.all(np.abs(values) <= degenerate_rtol * scale):
        return ZeroSet(points=np.empty((0, model.dim)), phi_values=np.empty(0),
                       provenance="trajectory", degenerate=True)

    points, phis, regions, straddle = [], [], [], []
    for k in range(len(times) - 1):
        f0, f1 = values[k], values[k + 1]
        if not (np.isfinite(f0) and np.isfinite(f1)) or np.sign(f0) * np.sign(f1) >= 0:
            continue
        straddles = False
        if model.regions is not None:
            r0, r1 = model.classify(states[k]), model.classify(states[k + 1])
            if r0 != r1:
                straddles = True
                warnings.warn(
                    f"phi sign change between t={times[k]:.6g} and t={times[k+1]:.6g} "
                    f"straddles PWL regions {r0!r}/{r1!r}; phi is discontinuous there")
        t_lo, t_hi = times[k], times[k + 1]
        x_lo = states[k]
        s_lo = np.sign(f0)
        while t_hi - t_lo > time_tol:
            t_mid = 0.5 * (t_lo + t_hi)
            sub = integrate(model, x_lo, t_mid - t_lo, rel_tol=1e-12, abs_tol=1e-14)
            x_mid = sub.states[-1]
            f_mid = float(phi(model, x_mid))
            if np.sign(f_mid) == s_lo and f_mid != 0.0:
                t_lo, x_lo = t_mid, x_mid
            else:
                t_hi = t_mid
        points.append(x_lo)
        phis.append(float(phi(model, x_lo)))
        straddle.append(straddles)
        if model.regions is not None:
            regions.append(model.classify(x_lo))

    pts = np.array(points) if points else np.empty((0, model.dim))
    return ZeroSet(points=pts, phi_values=np.array(phis), regions=tuple(regions),
                   provenance="trajectory",
                   metadata={"straddle": tuple(straddle)})


# ---------------------------------------------------------------------------
# Slow/fast (order-eps^0) residuals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlowFastSplit:
    """Fast components, small parameter, and slow-variable sampling box."""

    fast_indices: tuple
    epsilon: float
    box: tuple              # one (lo, hi) per slow coordinate
    box_center: np.ndarray | None = None

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


def default_split(model):
    """SlowFastSplit from the model's registered defaults."""
    d = model.slowfast_defaults
    if d is None:
        raise ValueError(f"model {model.name!r} has no slow/fast defaults")
    pname, mode = d["epsilon_param"]
    eps = model.params[pname]
    if mode == "inverse":
        eps = 1.0 / eps
    center = None
    if d.get("box_center") == "equilibrium":
        center = np.delete(magneto_equilibrium(model), d["fast"])
    return SlowFastSplit(fast_indices=tuple(d["fast"]), epsilon=float(eps),
                         box=tuple(tuple(b) for b in d["box"]), box_center=center)


def _sample_count(samples):
    if not isinstance(samples, (int, np.integer)) or samples < 0:
        raise ValueError(f"samples must be a nonnegative integer, got {samples!r}")
    return int(samples)


def _singular_points(model, split, samples, rng):
    """Points on the singular approximation, from `samples` random draws.

    Each draw takes the slow variables uniformly in the split's box (shifted
    by its center), then four random fast seeds to try after a zero one.
    Seed round s runs capped Newton on every draw still unsolved, batched.
    Returns the solved points in draw order, shape (count, n).
    """
    n, fast, samples = model.dim, list(split.fast_indices), _sample_count(samples)
    slow, center = [i for i in range(n) if i not in fast], split.box_center
    if (not fast or len(slow) != n - len(fast) or len(split.box) != len(slow)
            or center is not None and np.shape(center) != (len(slow),)):
        raise ValueError(f"the split needs distinct fast_indices in 0..{n - 1} and one "
                         "box range (and box_center value) per slow coordinate")
    bounds = np.array([*split.box] + [(-3.0, 3.0)] * (4 * len(fast)), dtype=float)
    draws = rng.uniform(bounds[:, 0], bounds[:, 1], (samples, len(bounds)))
    x0, seeds = np.zeros((n, samples)), np.zeros((5, len(fast), samples))
    x0[slow] = draws[:, :len(slow)].T
    seeds[1:] = draws[:, len(slow):].reshape(samples, 4, len(fast)).transpose(1, 2, 0)
    if center is not None:
        x0[slow] += np.asarray(center)[:, None]

    def capped(x):
        f = model.velocity(x)[fast].T
        converged = vecnorm(f) <= 1e-12 * (1.0 + vecnorm(x.T))
        step = solve_columns(np.moveaxis(model.jacobian(x)[np.ix_(fast, fast)], -1, 0), f)
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


@dataclass(frozen=True)
class GspSummary:
    n_requested: int
    n_solved: int
    n_skipped: int
    max_scaled: float
    mean_scaled: float
    epsilon: float


def _grad_phi(model, x):
    """Centered-difference gradients of phi at the columns of `x` (n, npts),
    rows (npts, n), from one batched phi call."""
    n, npts = x.shape
    h, i = 1e-6 * (1.0 + np.abs(x)), np.arange(n)
    shifted = np.tile(x[:, None, None], (1, 2, n, 1))
    # only coordinate i moves; the others stay copies (adding 0.0 turns -0.0 into +0.0)
    shifted[i, 0, i], shifted[i, 1, i] = x + h, x - h
    values = phi(model, shifted.reshape(n, -1)).reshape(2, n, npts)
    return ((values[0] - values[1]) / (2.0 * h)).T


def gsp_order0_residual(model, split, samples, seed=0):
    """|phi| on the singular approximation, scaled by phi's local gradient.

    Samples the slow variables in the split's box, solves the fast equations
    f(x, z, 0) = 0 for the fast components, and reports the max and mean of
    |phi| / |grad phi| there (a distance-to-zero-set estimate).  The
    order-eps^0 claim is that these vanish as the split stiffens; rebuild
    the model with a scaled stiffness parameter to observe the trend.
    """
    x = _singular_points(model, split, samples, np.random.default_rng(seed)).T
    solved = x.shape[1]
    if not solved:  # nothing to report: 0.0 for no samples, NaN for none solved
        empty = float("nan") if samples else 0.0
        return GspSummary(samples, 0, samples, empty, empty, split.epsilon)
    value = np.abs(phi(model, x))
    grad = vecnorm(_grad_phi(model, x))
    arr = np.where(grad > 0, value / np.where(grad > 0, grad, 1.0), 0.0)
    return GspSummary(samples, solved, samples - solved, float(arr.max()),
                      float(arr.mean()), split.epsilon)


# ---------------------------------------------------------------------------
# Darboux factor / first-integral detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactorReport:
    """Outcome of testing a candidate Darboux factor against phi and L_V."""

    factor: str
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


def factor_check(model, factor, box, samples=200, seed=0,
                 phi_tol=1e-6, fit_tol=1e-6):
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
        return np.stack([np.broadcast_to(e.eval(x), x.shape[1:]) for e in nodes], axis=-1)

    rng = np.random.default_rng(seed)
    box = [tuple(b) for b in box]
    if len(box) != n:
        raise ValueError("box must give one (lo, hi) range per coordinate")

    def sample_points(count):
        return rng.uniform(*np.array(box, dtype=float).T, (count, n)).T

    def project(x):  # one gradient-flow Newton step towards the factor's zero set
        v, g = rows([node], x)[:, 0], rows(grads, x)
        gnorm2 = vecdot(g, g)
        x = x - v * g.T / np.where(gnorm2 == 0.0, 1.0, gnorm2)
        converged = np.abs(rows([node], x)[:, 0]) <= 1e-12 * (1.0 + np.abs(v))
        return x, np.where(gnorm2 == 0.0, -1, converged.astype(int))

    x, status = newton(sample_points(samples), project, 80)
    zero_points = x[:, (status == 1) & np.isfinite(x).all(axis=0)]

    phi_scaled_max = None
    if zero_points.size:
        phi_scaled_max = float(np.max(phi_scaled(model, zero_points)))

    # cofactor estimate K = L_V(factor)/factor away from the zero set
    box_points = sample_points(max(samples, 50))
    box_values = rows([node], box_points)[:, 0]
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

    invariant = fit_residual <= fit_tol and (
        phi_scaled_max is None or phi_scaled_max <= phi_tol)
    return FactorReport(
        factor=factor, zero_set_count=zero_points.shape[1],
        phi_scaled_max=phi_scaled_max, cofactor_coeffs=coeffs,
        cofactor_basis=tuple(basis_names), cofactor_fit_residual=fit_residual,
        lie_factor_max=lie_max, first_integral=first_integral,
        invariant=invariant or first_integral)
