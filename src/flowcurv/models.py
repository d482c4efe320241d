"""Model zoo and config loader for n-dimensional autonomous vector fields.

Built-in systems: the piecewise-linear Chua circuits in dimensions 3/4/5,
their cubic-nonlinearity variants in dimensions 4/5, a five-mode
magnetoconvection truncation, and a five-dimensional synthetic system with
known invariant manifolds ("gear5").  User systems load from a JSON config
with polynomial + pwl right-hand sides; the Jacobian is derived by
differentiating the expression tree, so scalar and batch evaluation, Taylor
coefficients and the Jacobian all share one definition.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .geometry import vecnorm
from .jets import MAX_ORDER

__all__ = [
    "ModelDef", "FixedPoint", "ModelError",
    "fixed_points", "load_model", "get_model", "registry",
    "region_box", "region_samples", "region_labels", "point_regions",
]


class ModelError(ValueError):
    """Raised for invalid configs and unsupported model requests."""


# The deepest rhs tree a config may build: values, Taylor coefficients, the
# generated step and `diff` recurse once or twice per level, and a Jacobian
# tree is up to twice as deep as its rhs.  Built-in trees are at most 8 deep.
MAX_TREE_DEPTH = 100


def _tree_depth(trees):
    """Levels of the deepest of `trees`, a power counted through its product tree."""
    height = {}

    def measure(node):
        below = (node.tree,) if isinstance(node, ex.Pow) else node.children
        height[node] = 1 + max((height[c] for c in below), default=0)

    for node in ex.walk(trees):
        if isinstance(node, ex.Pow):  # its product tree, which `walk` does not enter
            for part in ex.walk([node.tree]):
                if part not in height:
                    measure(part)
        measure(node)
    return max(height[tree] for tree in trees)


@dataclass(frozen=True)
class FixedPoint:
    """Equilibrium (or branch equilibrium) of a model.

    `region` records the branch the point was solved on (for a smooth
    model, None).  `virtual` marks a PWL branch equilibrium that classifies
    outside its own branch, in built-ins and JSON configs alike; the
    published 4-D Chua circuit values are of this kind, and every analysis
    that uses such a point pins evaluation to its branch.
    """

    location: np.ndarray
    region: object = None
    virtual: bool = False

    def __post_init__(self):
        object.__setattr__(self, "location", np.asarray(self.location, dtype=float))


@dataclass(frozen=True)
class ModelDef:
    """Immutable model definition: the rhs expression trees and metadata.

    The trees `rhs_exprs` are the model's only definition; everything else
    is derived from them on first use and cached per instance, so
    ``dataclasses.replace(model, rhs_exprs=...)`` gives a model whose every
    evaluator follows the new field:

    - `dim`: the number of trees, one per state coordinate;
    - `jac_exprs`: the Jacobian trees, ``jac_exprs[i][j]`` the partial of
      component i by x_(j+1);
    - `pwl_args`: the argument tree of each pwl node, by node id (empty for
      a smooth model);
    - `dp_step`: the model's Dormand-Prince step (`expr.compile_step`),
      compiled on first use;
    - `velocity`, `jacobian` and `classify` walk the trees; all are pure
      and re-entrant.
    """

    name: str
    params: dict
    rhs_exprs: tuple
    fixed_point_guesses: tuple = ()
    slowfast_defaults: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        # Fill the first cache entry at construction: added mid-computation,
        # it raised grid-scan's peak RSS by 3.6 MB (heap fragmentation).
        self.pwl_args  # noqa: B018

    @property
    def dim(self):
        return len(self.rhs_exprs)

    @functools.cached_property
    def jac_exprs(self):
        return tuple(tuple(e.diff(j) for j in range(self.dim)) for e in self.rhs_exprs)

    @functools.cached_property
    def pwl_args(self):
        return ex.pwl_args(self.rhs_exprs)

    @functools.cached_property
    def dp_step(self):
        return ex.compile_step(self.rhs_exprs)

    def velocity(self, x, region=None):
        """rhs at a state (n,) or a batch (n, npts), as an ndarray of that shape."""
        return ex.evaluate(self.rhs_exprs, np.asarray(x, dtype=float), region)

    def jacobian(self, x, region=None):
        """(n, n) at a state (n,), (n, n, npts) over a batch (n, npts)."""
        x = np.asarray(x, dtype=float)
        trees = [e for row in self.jac_exprs for e in row]
        return ex.evaluate(trees, x, region).reshape((self.dim, self.dim) + x.shape[1:])

    def classify(self, x):
        """Branch label at a state, or per point over a batch (n, npts): a
        string for one pwl term, a tuple of them for several, None without."""
        if not self.pwl_args:
            return None
        labels = tuple(ex.classify_pwl(arg.eval(x)) for arg in self.pwl_args)
        return labels if len(labels) > 1 else labels[0]


def region_labels(model, states):
    """Branch labels of the columns of `states` (n, npts), from one batched
    call: an object array (pwl terms, npts), compared elementwise."""
    labels = model.classify(states)
    # a constant pwl argument gives one label for every point
    return np.array([np.broadcast_to(np.asarray(term, dtype=object), np.shape(states)[1:])
                     for term in (labels if isinstance(labels, tuple) else (labels,))])


def point_regions(model, states):
    """Region of each column of `states` (n, npts), from one batched call.

    A label per point, as `model.classify` gives it for that point: a
    string, or a tuple of strings for several pwl terms; () for a model
    without pwl terms.
    """
    if not model.pwl_args:
        return ()
    terms = region_labels(model, states)
    return tuple(zip(*terms)) if len(terms) > 1 else tuple(terms[0])


def _model_from_config(config, slowfast_defaults=None):
    if not isinstance(config, dict):
        raise ModelError(f"a model config is a JSON object, got {type(config).__name__}")
    required = {"name", "dim", "params", "rhs"}
    allowed = required | {"fixed_point_guesses"}
    unknown = set(config) - allowed
    if unknown:
        raise ModelError(f"unknown config keys: {sorted(unknown)}")
    missing = required - set(config)
    if missing:
        raise ModelError(f"missing config keys: {sorted(missing)}")

    name = config["name"]
    if not isinstance(name, str):
        raise ModelError(f"name must be a string, got {name!r}")
    dim = config["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ModelError(f"dim must be a positive integer, got {dim!r}")
    if dim > MAX_ORDER - 1:  # phi and its Lie derivative need n + 1 time derivatives
        raise ModelError(f"dim {dim} exceeds the cap of {MAX_ORDER - 1}: the derivative "
                         f"stacks stop at order {MAX_ORDER}")
    var_names = {f"x{i + 1}": i for i in range(dim)}
    if not isinstance(config["params"], dict):
        raise ModelError(f"params must map names to numbers, got {config['params']!r}")
    params = dict(config["params"])
    for key, value in params.items():
        # the parser reads a state variable or a pwl call before a parameter
        if key in var_names or key == "pwl":
            raise ModelError(f"parameter {key!r} is taken by a state variable or pwl")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ModelError(f"parameter {key!r} is not numeric")
        params[key] = float(value)
    rhs_strings = config["rhs"]
    # a string would be split into one expression per character
    if not isinstance(rhs_strings, (list, tuple)) or \
            not all(isinstance(text, str) for text in rhs_strings):
        raise ModelError(f"rhs must be a list of expression strings, got {rhs_strings!r}")
    if len(rhs_strings) != dim:
        raise ModelError(
            f"dimension mismatch: dim = {dim} but {len(rhs_strings)} rhs expressions")

    exprs = []
    pwl_count = 0
    for text in rhs_strings:
        node, pwl_count = ex.parse_expression(text, var_names, params, pwl_offset=pwl_count)
        exprs.append(node)
    depth = _tree_depth(exprs)
    if depth > MAX_TREE_DEPTH:
        raise ModelError(f"an rhs tree is {depth} levels deep, over the cap of "
                         f"{MAX_TREE_DEPTH}")

    guesses = config.get("fixed_point_guesses", ())
    try:
        guesses = tuple(np.asarray(g, dtype=float) for g in guesses)
    except (TypeError, ValueError):
        raise ModelError(f"fixed_point_guesses must be a list of states, "
                         f"got {guesses!r}") from None
    for g in guesses:
        if g.shape != (dim,) or not np.all(np.isfinite(g)):
            raise ModelError(f"fixed_point_guesses: guess {g} is not {dim} finite numbers")

    return ModelDef(name=name, params=params, rhs_exprs=tuple(exprs),
                    fixed_point_guesses=guesses, slowfast_defaults=slowfast_defaults)


# ---------------------------------------------------------------------------
# Built-in configs.  Parameter values are stored as the exact rational
# expressions evaluated in double precision, not re-typed decimals.
# ---------------------------------------------------------------------------

def _builtin(**defaults):
    """`build(p)` as a built-in's config builder: p is these parameter defaults
    updated by its argument, and `get_model` overrides these names only."""
    def wrap(build):
        def config(params):
            return build({**defaults, **params})
        config.params = tuple(defaults)
        return config
    return wrap


@_builtin(alpha=9.0, beta=100.0 / 7.0, a=-8.0 / 7.0, b=-5.0 / 7.0)
def _chua3_config(p):
    return {
        "name": "chua3-pwl", "dim": 3, "params": p,
        "rhs": [
            "alpha*(x2 - x1 - pwl(x1; a, b))",
            "x1 - x2 + x3",
            "-beta*x2",
        ],
    }


# The published eigenvector and hyperplane coefficients for this circuit
# require alpha2 = +0.18 even though the defining text prints -0.18.
@_builtin(alpha1=2.1429, alpha2=0.18, beta1=0.0774, beta2=0.003, a=-0.42, b=1.2)
def _chua4_pwl_config(p):
    return {
        "name": "chua4-pwl", "dim": 4, "params": p,
        "rhs": [
            "alpha1*(x3 - pwl(x1; a, b))",
            "alpha2*x2 - x3 - x4",
            "beta1*(x2 - x1 - x3)",
            "beta2*x2",
        ],
    }


@_builtin(alpha1=9.934, alpha2=1.0, beta1=14.47, beta2=-406.5, gamma1=-0.0152,
          gamma2=41000.0, a=-1.246, b=-0.6724)
def _chua5_pwl_config(p):
    return {
        "name": "chua5-pwl", "dim": 5, "params": p,
        "rhs": [
            "alpha1*(x2 - x1 - pwl(x1; a, b))",
            "alpha2*x1 - x2 + x3",
            "beta1*(x4 - x2)",
            "beta2*(x3 + x5)",
            "gamma2*(x4 + gamma1*x5)",
        ],
    }


def _odd_guesses(dim, disc, branch):
    """Newton guesses of a cubic Chua circuit: the origin and, when the
    closed-form x1^2 = disc is positive, its two mirrored outer branches."""
    guesses = [[0.0] * dim]
    if disc > 0:
        pos = branch(math.sqrt(disc))
        guesses += [pos, [-v for v in pos]]
    return guesses


@_builtin(alpha1=2.1429, alpha2=0.18, beta1=0.0774, beta2=0.003, c1=0.3937, c2=-0.7235)
def _chua4_cubic_config(p):
    return {
        "name": "chua4-cubic", "dim": 4, "params": p,
        "rhs": [
            "alpha1*(x3 - (c1*x1^3 + c2*x1))",
            "alpha2*x2 - x3 - x4",
            "beta1*(x2 - x1 - x3)",
            "beta2*x2",
        ],
        # x2 = 0, x3 = -x1, x4 = x1, with c1*x1^3 + c2*x1 = -x1
        "fixed_point_guesses": _odd_guesses(4, -(1.0 + p["c2"]) / p["c1"],
                                            lambda x1: [x1, 0.0, -x1, x1]),
    }


@_builtin(alpha1=9.934, alpha2=1.0, beta1=14.47, beta2=-406.5, gamma1=-0.0152,
          gamma2=41000.0, c1=0.1068, c2=-0.3056)
def _chua5_cubic_config(p):
    g1 = p["gamma1"]

    def branch(x1):  # x2 = x4 = x1 + x3, x5 = -x3
        x3 = x1 / (g1 - 1.0)
        return [x1, x1 + x3, x3, x1 + x3, -x3]

    return {
        "name": "chua5-cubic", "dim": 5, "params": p,
        "rhs": [
            "alpha1*(x2 - x1 - (c1*x1^3 + c2*x1))",
            "alpha2*x1 - x2 + x3",
            "beta1*(x4 - x2)",
            "beta2*(x3 + x5)",
            "gamma2*(x4 + gamma1*x5)",
        ],
        "fixed_point_guesses": _odd_guesses(5, (1.0 / (g1 - 1.0) - p["c2"]) / p["c1"],
                                            branch),
    }


@_builtin(sigma=1.0, r=14.47, q=5.0, varsigma=0.09683, omega=0.1081)
def _magneto_config(p):
    om, vs = p["omega"], p["varsigma"]
    # derived couplings; recomputed whenever the base parameters change
    p["cq"] = om * (3.0 - om) / (vs ** 2 * (4.0 - om))
    p["cm"] = om / (vs * (4.0 - om))
    p["c5"] = vs * (4.0 - om)
    return {
        "name": "magnetoconvection5", "dim": 5, "params": p,
        "rhs": [
            "sigma*(r*x2 - x1 - q*x4*(1 + cq*x5))",
            "x1 - x2 - x1*x3",
            "omega*(x1*x2 - x3)",
            "-varsigma*(x4 - x1) - cm*x1*x5",
            "-c5*(x5 - x1*x4)",
        ],
        # The convection equilibria do not evaluate to an exactly zero
        # velocity in double arithmetic, so only the origin is returned;
        # magneto_equilibrium gives the convection branch.
        "fixed_point_guesses": [[0.0] * 5],
    }


@_builtin(L=1000.0, beta1=800.0, beta2=1200.0)
def _gear_config(p):
    return {
        "name": "gear5", "dim": 5, "params": p,
        "rhs": [
            "-x2",
            "x1",
            "L*(x1^2 + x2^2 - x3)",
            "beta1 + x4^2",
            "beta2 + x2^2",
        ],
    }


def region_box(model, region, center=None):
    """Axis-aligned sampling box inside one PWL region.

    When the first pwl argument is u = c x_i + d in one coordinate (c a
    nonzero constant), x_i is clamped so that u lies on the region's side
    of the breakpoints with a small safety margin; other coordinates span
    ``center +- 2``.  Any other argument leaves the box unclamped.
    """
    center = np.zeros(model.dim) if center is None else np.asarray(center, dtype=float)
    lo = center - 2.0
    hi = center + 2.0
    coords = {node.index for node in ex.walk(model.pwl_args[:1]) if isinstance(node, ex.Var)}
    if len(coords) == 1:
        (i,), arg = coords, model.pwl_args[0]
        slope = arg.diff(i)
        c = float(slope.eval(center)) if slope.constant else 0.0
        if c != 0.0:
            d = float(arg.eval(np.zeros(model.dim)))
            outer = max(2.5, abs(float(arg.eval(center))) + 1.0)
            u_lo, u_hi = {"pos": (1.05, outer),
                          "neg": (-outer, -1.05)}.get(region, (-0.95, 0.95))
            lo[i], hi[i] = sorted(((u_lo - d) / c, (u_hi - d) / c))
    return lo, hi


def region_samples(model, rng, count, boxes, regions=(None,), max_draws=math.inf,
                   project=None):
    """Up to `count` states by rejection, (n, npts), and the number of draws.

    Draw k is uniform in ``boxes[k % len(boxes)]``, mapped by `project`
    (rows (m, n) to rows) if given, and kept if it lies in
    ``regions[k % len(regions)]``: a label tuple names every pwl term's
    branch, a string the first term's, None any state.  Each round draws
    the states still missing with one ``rng.uniform`` call, which consumes
    the stream of as many single draws, and classifies them in one batched
    call; only a round's last draw can complete the sample, so the points,
    the draw count and the rng state are the one-at-a-time loop's.  Stops
    at `count` points or `max_draws` draws.
    """
    lo, hi = (np.array([box[i] for box in boxes], dtype=float) for i in (0, 1))
    chunks, draws, missing = [np.empty((0, model.dim))], 0, count
    while missing and draws < max_draws:
        k = np.arange(draws, draws + int(min(missing, max_draws - draws)))
        rows = rng.uniform(lo[k % len(boxes)], hi[k % len(boxes)])
        rows = rows if project is None else project(rows)
        wanted = [regions[j % len(regions)] for j in k]
        labels = point_regions(model, rows.T) or wanted  # no pwl term: keep all
        keep = [r is None or lab == r or type(lab) is tuple and lab[0] == r
                for lab, r in zip(labels, wanted)]
        chunks.append(rows[np.array(keep, dtype=bool)])
        draws, missing = draws + len(k), missing - len(chunks[-1])
    return np.concatenate(chunks).T, draws


# ---------------------------------------------------------------------------
# Fixed points
# ---------------------------------------------------------------------------

# A solved PWL equilibrium is snapped within +-_SNAP_ULPS ulps per
# coordinate, a box of 5^n candidates; past _SNAP_CANDIDATES (the 5-D box)
# the box narrows, so a large config never allocates 5^n states.
_SNAP_ULPS = 2
_SNAP_CANDIDATES = (2 * _SNAP_ULPS + 1) ** 5


def _snap(model, loc, region):
    """The exact zero of the velocity on `region` nearest `loc`, in ulps.

    One batched velocity call over the box of floats within a few ulps of
    `loc` in every coordinate.  The candidate with the least summed ulp
    distance wins; ties go to the first in the order 0, +1, -1, +2, -2 per
    coordinate, the first coordinate varying slowest.  `loc` itself is kept when no
    candidate is an exact zero.  Adding 0.0 turns -0.0 into +0.0.
    """
    width = _SNAP_ULPS
    while width and (2 * width + 1) ** model.dim > _SNAP_CANDIDATES:
        width -= 1
    up = down = loc
    columns, cost = [loc], [0]
    for k in range(1, width + 1):
        up, down = np.nextafter(up, math.inf), np.nextafter(down, -math.inf)
        columns += [up, down]
        cost += [k, k]
    index = np.indices((len(cost),) * model.dim).reshape(model.dim, -1)
    candidates = np.stack(columns, axis=1)[np.arange(model.dim)[:, None], index]
    zero = (model.velocity(candidates, region) == 0.0).all(axis=0)
    if not zero.any():
        return loc + 0.0
    hits = np.flatnonzero(zero)
    distance = np.asarray(cost)[index[:, hits]].sum(axis=0)
    return candidates[:, hits[np.argmin(distance)]] + 0.0


def magneto_equilibrium(model):
    """Positive-branch convection equilibrium of the magnetoconvection model."""
    p = model.params
    r, q, vs, cq, cm = p["r"], p["q"], p["varsigma"], p["cq"], p["cm"]

    def reduced(x1):  # x2, x4, x5 of the equilibrium through x1
        x4 = vs * x1 / (vs + cm * x1 * x1)
        return x1 / (1.0 + x1 * x1), x4, x1 * x4

    def g(x1):
        x2, x4, x5 = reduced(x1)
        return -x1 + r * x2 - q * x4 * (1.0 + cq * x5)

    lo, hi = 1e-6, 50.0
    xs = np.linspace(lo, hi, 4000)
    gs = g(xs)
    change = np.flatnonzero(gs[:-1] * gs[1:] <= 0)
    if not change.size:
        raise ModelError("no nontrivial magnetoconvection equilibrium found")
    b_ = xs[change[0] + 1]
    a_ = b_ - (hi - lo) / 3999.0
    for _ in range(200):
        m = 0.5 * (a_ + b_)
        if g(a_) * g(m) <= 0:
            b_ = m
        else:
            a_ = m
    x1 = 0.5 * (a_ + b_)
    x2, x4, x5 = reduced(x1)
    return _newton_polish(model, [[x1, x2, x1 * x2, x4, x5]])[0]


def solve_columns(J, f):
    """x[i] solving J[i] x[i] = f[i] for J (m, k, k), f (m, k), bit for bit the
    per-matrix solves.  When a singular J[i] makes the stacked solve raise, the
    stack splits in halves down to single matrices; a singular one gives NaN."""
    try:
        return np.linalg.solve(J, f[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(f) == 1:
            return np.full(f.shape, np.nan)
        half = len(f) // 2
        return np.concatenate([solve_columns(J[:half], f[:half]),
                               solve_columns(J[half:], f[half:])])


def newton(x, step, max_iter):
    """Masked batched Newton iteration on the columns of `x` (n, npts).

    Each round, ``step(live)`` maps the live columns to their next values and
    a status each: +1 converged, -1 failed, 0 go on.  A column retires with
    the round that set its status, so it takes exactly the steps it would
    take alone.  Returns the columns and statuses (0: live after `max_iter`).
    """
    x = np.array(x, dtype=float)
    status = np.zeros(x.shape[1], dtype=int)
    live = np.arange(x.shape[1])
    for _ in range(max_iter):
        if not live.size:
            break
        x[:, live], status[live] = step(x[:, live])
        live = live[status[live] == 0]
    return x, status


def _newton_polish(model, guesses):
    """Damped Newton on the velocity from all guesses (npts, n) at once, at most
    60 steps to |f| <= 1e-14 (1 + |x|); a step halves until the velocity norm
    falls, at most 30 times.  Returns the points (npts, n); a singular
    Jacobian raises `ModelError`."""
    def damped(x):
        f = model.velocity(x)
        fn = vecnorm(f.T)
        converged = fn <= 1e-14 * (1.0 + vecnorm(x.T))
        step = solve_columns(np.moveaxis(model.jacobian(x), -1, 0), f.T).T
        if np.isnan(step[:, ~converged]).any():
            raise ModelError("singular Jacobian in fixed-point Newton iteration")
        step[:, converged] = 0.0
        damping, done = np.ones(x.shape[1]), converged
        for _ in range(30):
            done = done | (vecnorm(model.velocity(x - damping * step).T) < fn)
            if done.all():
                break
            damping[~done] *= 0.5
        return x - damping * step, converged.astype(int)

    return newton(np.reshape(guesses, (-1, model.dim)).T, damped, 60)[0].T


def _coincide(a, b):
    return np.allclose(a.location, b.location, atol=1e-9)


def _branch_fixed_points(model):
    """Per-region affine solve of a one-pwl model, each solution snapped."""
    found = []
    for region in ex.PWL_LABELS:
        c = model.velocity(np.zeros(model.dim), region=region)
        loc = solve_columns(model.jacobian(np.zeros(model.dim), region=region)[None], -c[None])[0]
        if np.isnan(loc).any():
            continue  # singular branch
        resid = np.linalg.norm(model.velocity(loc, region=region))
        if resid > 1e-10 * (1.0 + np.linalg.norm(loc)):
            continue  # branch is not affine: only Newton guesses apply
        loc = _snap(model, loc, region)
        found.append(FixedPoint(loc, region=region, virtual=model.classify(loc) != region))
    real = [fp for fp in found if not fp.virtual]
    out = []
    for fp in found:
        if fp.virtual and any(_coincide(fp, r) for r in real):
            warnings.warn(
                f"{model.name}: candidate {fp.location} solved on branch {fp.region!r} "
                f"classifies as {model.classify(fp.location)!r}; discarded as spurious")
            continue
        out.append(fp)
    return out


def fixed_points(model):
    """All equilibria of `model`, sorted by location.

    One solver serves built-ins and JSON configs alike.  A model with one
    pwl node is affine on each branch: each branch's affine system is solved
    once and the solution snapped (`_snap`) to the nearest state whose
    velocity is exactly zero in double arithmetic, so phi and L_V phi vanish
    exactly there.  Every branch is solved, none mirrored from another, so a
    built-in and its JSON copy give the same bits.  A branch solution that
    classifies outside its branch is returned with ``virtual=True`` (callers
    that want only real equilibria filter on it), unless it coincides with a
    real equilibrium: then it is discarded with a "spurious" warning.  All of
    ``model.fixed_point_guesses`` are refined together by batched damped
    Newton (`newton`); one that does not converge is skipped with a warning,
    and a singular Jacobian at any guess raises `ModelError`.
    """
    pts = _branch_fixed_points(model) if len(model.pwl_args) == 1 else []
    guesses = model.fixed_point_guesses
    for guess, loc in zip(guesses, _newton_polish(model, guesses)):
        resid = np.linalg.norm(model.velocity(loc, region=model.classify(loc)))
        if resid > 1e-10 * (1.0 + np.linalg.norm(loc)):
            warnings.warn(f"{model.name}: Newton iteration from {guess} did not converge")
            continue
        pts.append(FixedPoint(loc, region=model.classify(loc)))
    out = []
    for fp in pts:
        if not any(_coincide(fp, o) for o in out):
            out.append(fp)
    out.sort(key=lambda fp: tuple(fp.location))
    return out


# ---------------------------------------------------------------------------
# Registry / loader
# ---------------------------------------------------------------------------

_BUILTIN_BUILDERS = {
    "chua3-pwl": _chua3_config,
    "chua4-pwl": _chua4_pwl_config,
    "chua5-pwl": _chua5_pwl_config,
    "chua4-cubic": _chua4_cubic_config,
    "chua5-cubic": _chua5_cubic_config,
    "magnetoconvection5": _magneto_config,
    "gear5": _gear_config,
}

# The slow/fast split that `manifold._singular_points` samples: which
# components are fast, one (lo, hi) range per slow coordinate, and the box
# centre.  The magnetoconvection box hugs its convection equilibrium: the
# stationarity of its Jacobian on f1 = 0 is only a near-equilibrium property.
_SLOWFAST_DEFAULTS = {
    "chua4-cubic": {"fast": (0,), "box": [(-2.0, 2.0)] * 3, "box_center": None},
    "chua5-cubic": {"fast": (0,), "box": [(-1.5, 1.5)] * 4, "box_center": None},
    "magnetoconvection5": {"fast": (0,), "box": [(-0.02, 0.02)] * 4,
                           "box_center": "equilibrium"},
}


def registry():
    """Names of the built-in models."""
    return sorted(_BUILTIN_BUILDERS)


def get_model(name, **param_overrides):
    """Build a built-in model, overriding some of its own parameters (no other name)."""
    if name not in _BUILTIN_BUILDERS:
        raise ModelError(f"unknown model {name!r}; known: {', '.join(registry())}")
    builder = _BUILTIN_BUILDERS[name]
    unknown = set(param_overrides) - set(builder.params)
    if unknown:
        raise ModelError(f"unknown parameters of {name}: {sorted(unknown)}; "
                         f"its parameters are {', '.join(builder.params)}")
    config = builder(param_overrides)
    return _model_from_config(config, slowfast_defaults=_SLOWFAST_DEFAULTS.get(name))


def load_model(source):
    """Load a ModelDef from a registry name, JSON text, config dict, or path.

    A config may not take a built-in's name: verify picks its model-specific
    checks by name, and would run them on the config.
    """
    if isinstance(source, str) and source in _BUILTIN_BUILDERS:
        return get_model(source)
    if isinstance(source, dict):
        config = source
    elif isinstance(source, str):
        if source.lstrip().startswith("{"):
            config = json.loads(source)
        else:
            with open(source, "r", encoding="utf-8") as fh:
                config = json.load(fh)
    elif hasattr(source, "read"):
        config = json.load(source)
    else:
        raise ModelError(f"cannot load model from {type(source).__name__}")
    if isinstance(config, dict) and config.get("name") in registry():
        raise ModelError(f"config name {config['name']!r} is a built-in model's; "
                         "give the config its own name")
    return _model_from_config(config)
