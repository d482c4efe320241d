"""Command-line front end.

Commands: list-models, integrate, phi-scan, manifold, hyperplane, curvature,
verify.  All numeric output uses shortest round-trip decimals, so identical
configurations produce byte-identical files.  Exit codes: 0 success, 1
configuration error, 2 numerical failure (diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import pickle
import signal
import sys
import threading

import numpy as np

from . import geometry, ioutil, manifold, models, spectral, verify
from .integrate import IntegrationError, integrate
from .ioutil import fmt, write_table
from .jets import derivative_stack

__all__ = ["main"]


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; they are config errors here
    def error(self, message):
        self.exit(1, f"{self.prog}: config error: {message}\n")


def _positive(text):
    """argparse type: a finite number > 0 (end times and tolerances)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _seed(text):
    """argparse type: an integer >= 0 (numpy's generators take no negative seed)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return value


def _load(name_or_path):
    try:
        return models.load_model(name_or_path)
    except (models.ModelError, OSError, ValueError) as err:
        raise ConfigError(str(err)) from err


def _parse_vector(text, dim, what="--x0"):
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != dim:
        raise ConfigError(f"{what} needs {dim} comma-separated values, got {len(parts)}")
    try:
        values = np.array([float(p) for p in parts])
    except ValueError as err:
        raise ConfigError(f"bad {what}: {err}") from err
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"bad {what}: values must be finite")
    return values


def _axis_index(token, dim):
    if not token.startswith("x"):
        raise ConfigError(f"coordinate names are x1..x{dim}, got {token!r}")
    try:
        idx = int(token[1:]) - 1
    except ValueError:
        raise ConfigError(f"bad coordinate name {token!r}")
    if not 0 <= idx < dim:
        raise ConfigError(f"{token} out of range for a {dim}-dimensional model")
    return idx


def _parse_grid(text, dim, min_nodes=1):
    """x1=-4:4:200,x2=-1:1:200 -> {0: (-4.0, 4.0, 200), 1: (...)}"""
    axes = {}
    for part in text.split(","):
        if not part.strip():
            continue
        try:
            name, spec = part.split("=")
            lo, hi, count = spec.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
            idx = _axis_index(name.strip(), dim)
        except ConfigError:
            raise
        except ValueError as err:
            raise ConfigError(f"bad grid component {part!r}: expected x1=lo:hi:count") from err
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigError(f"bad grid component {part!r}: bounds must be finite")
        if count < min_nodes:
            raise ConfigError(f"bad grid component {part!r}: count must be at least {min_nodes}")
        if idx in axes:
            raise ConfigError(f"x{idx + 1} is given twice in --grid")
        axes[idx] = (lo, hi, count)
    if len(axes) not in (2, 3):
        raise ConfigError("--grid must span 2 or 3 coordinates")
    return axes


def _parse_slice(text, dim, model, axes):
    """x3=fp,x4=0 -> {2: <fp coordinate>, 3: 0.0}; fp = nearest fixed point."""
    if not text:
        return {}
    raw = {}
    for part in text.split(","):
        if not part.strip():
            continue
        try:
            name, value = part.split("=")
        except ValueError as err:
            raise ConfigError(f"bad slice component {part!r}") from err
        idx = _axis_index(name.strip(), dim)
        if idx in raw:
            raise ConfigError(f"x{idx + 1} is given twice in --slice")
        if idx in axes:
            raise ConfigError("a coordinate cannot be both a grid axis and a slice value")
        raw[idx] = value.strip()
    resolved = {}
    fp_needed = [i for i, v in raw.items() if v == "fp"]
    if fp_needed:
        fps = models.fixed_points(model)
        if not fps:
            raise ConfigError("slice value 'fp' requested but the model has no fixed points")
        center = np.zeros(dim)
        for i, (lo, hi, _) in axes.items():
            center[i] = 0.5 * (lo + hi)
        grid_idx = sorted(axes)
        nearest = min(fps, key=lambda fp: float(
            np.linalg.norm(fp.location[grid_idx] - center[grid_idx])))
        for i in fp_needed:
            resolved[i] = float(nearest.location[i])
    for i, v in raw.items():
        if v != "fp":
            try:
                resolved[i] = float(v)
            except ValueError as err:
                raise ConfigError(f"bad slice value {v!r}") from err
            if not math.isfinite(resolved[i]):
                raise ConfigError(f"bad slice value {v!r}: must be finite")
    return resolved


def _join_regions(regions, count):
    """One label per point; several pwl terms join with '/', none gives ''."""
    return [r if isinstance(r, str) else "/".join(r) for r in regions] or [""] * count


def _nonfinite_rows(values):
    """The number of rows of `values` (rows, columns) that hold a NaN or an infinity."""
    return int(np.count_nonzero(~np.isfinite(values).all(axis=1)))


def _nonfinite_note(count):
    """' (k non-finite rows)' for k > 0 such rows; '' when there is none."""
    return f" ({count} non-finite rows)" if count else ""


# phi-scan evaluates its columns in chunks of this width, which bounds the
# memory of the longdouble stacks; its shares are runs of whole chunks
_SCAN_CHUNK = 2048


def _share_count(most):
    """The number of shares to split a command's work into: one per CPU the
    process may run on, at most `most`.  It is 1 where the process cannot fork
    or read its CPU affinity, and when it runs other threads, which a forked
    child would lack."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), most))


def _scan_shares(npts, fmt_name):
    """Column bounds of phi-scan's k shares of whole chunks (`_share_count`).

    k is at most a quarter of the chunk count, and 1 for JSON output (one
    document).
    """
    chunks = -(-npts // _SCAN_CHUNK)
    k = _share_count(chunks // 4) if fmt_name == "csv" else 1
    return [min(chunks * i // k * _SCAN_CHUNK, npts) for i in range(k + 1)]


def _scan_share(model, states, lo, hi, write):
    """Scan the columns lo:hi of phi-scan's states and pass `write` their
    rows, the states then phi, lie and the cofactor residual, as one
    `ioutil.RowBlocks` of one block per chunk.  `states(start, stop)` gives
    the states of a column range.  A chunk is scanned when the writer asks
    for it, so the share holds one chunk at a time, and every chunk's stack
    fills a view of one coefficient array, allocated once per share.
    Returns the share's count of non-finite rows."""
    n = model.dim
    nonfinite = 0
    coeffs = np.empty((n + 2, n, min(_SCAN_CHUNK, hi - lo)), dtype=np.longdouble)

    def chunks():
        nonlocal nonfinite
        for start in range(lo, hi, _SCAN_CHUNK):
            x = states(start, min(start + _SCAN_CHUNK, hi))
            sample = manifold.manifold_sample(model, x, out=coeffs[..., :x.shape[1]])
            block = np.empty((n + 3, x.shape[1]))
            block[:n] = x
            block[n:] = sample.phi, sample.lie, sample.cofactor_residual
            nonfinite += _nonfinite_rows(block[n:].T)
            yield block.T

    write(ioutil.RowBlocks(hi - lo, n + 3, chunks()))
    return nonfinite


class _Worker:
    """`func(*args)` run in a forked process, which sends back its picklable
    result, or the exception it met, through a pipe and leaves through
    os._exit.  `what` names the worker in the error of one that ends without
    a result."""

    def __init__(self, what, func, *args):
        self.what, self.pid = what, None
        self.pipe, write_end = os.pipe()
        try:
            self.pid = os.fork()
            if self.pid == 0:
                self._work(func, args, write_end)
        except BaseException:
            self.stop()
            raise
        finally:
            os.close(write_end)

    @staticmethod
    def _work(func, args, write_end):
        """The whole life of the worker process; it never returns."""
        try:
            try:
                result = func(*args)
            except BaseException as err:  # raised again by the parent
                result = err
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(pickle.dumps(result))
        finally:
            os._exit(0)

    def join(self):
        """Wait for the worker; returns its result, or raises the exception it met."""
        with os.fdopen(self.pipe, "rb") as pipe:
            self.pipe = None
            payload = pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if not payload:
            raise RuntimeError(f"the {self.what} ended without a result "
                               f"(wait status {status})")
        result = pickle.loads(payload)
        if isinstance(result, BaseException):
            raise result
        return result

    def stop(self):
        """Close the pipe, and kill and reap the worker if it was not joined."""
        if self.pipe is not None:
            os.close(self.pipe)
            self.pipe = None
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


# -- commands -----------------------------------------------------------------

def _cmd_list_models(args):
    for name in models.registry():
        print(name)
    return 0


def _trajectory(model, args):
    """The trajectory of `model` from --x0 to --t-end, at the --rel-tol and
    --abs-tol given (`integrate`'s defaults for the others)."""
    tolerances = {k: v for k in ("rel_tol", "abs_tol") if (v := getattr(args, k)) is not None}
    return integrate(model, _parse_vector(args.x0, model.dim), args.t_end, **tolerances)


def _cmd_integrate(args):
    model = _load(args.model)
    traj = _trajectory(model, args)
    header = ["t"] + [f"x{i + 1}" for i in range(model.dim)] + ["region"]
    write_table(args.out, header, np.column_stack([traj.times, traj.states]), args.format,
                labels=_join_regions(models.point_regions(model, traj.states.T), len(traj)))
    print(f"{len(traj)} samples, {len(traj.events)} region crossings -> {args.out}")
    return 0


def _cmd_phi_scan(args):
    model = _load(args.model)
    if bool(args.grid) == bool(args.x0):
        raise ConfigError("phi-scan needs exactly one of --grid or --x0/--t-end")
    if args.grid:
        for flag, value in (("--t-end", args.t_end), ("--rel-tol", args.rel_tol),
                            ("--abs-tol", args.abs_tol)):
            if value is not None:
                raise ConfigError(f"{flag} applies to a trajectory scan (--x0), not to --grid")
        axes = _parse_grid(args.grid, model.dim)
        slices = _parse_slice(args.slice, model.dim, model, axes)
        npts = math.prod(count for _, _, count in axes.values())

        def states(start, stop):
            return manifold.grid_states(model.dim, axes, slices, start, stop)[0]
    else:
        if args.t_end is None:
            raise ConfigError("--x0 requires --t-end")
        if args.slice:
            raise ConfigError("--slice applies to a grid scan (--grid), not to --x0")
        trajectory = _trajectory(model, args).states.T
        npts = trajectory.shape[1]

        def states(start, stop):
            return trajectory[:, start:stop]
    # shares 1..k-1 run in forked workers, each writing a part file; this
    # process writes share 0 and then appends the part files in share order
    bounds = _scan_shares(npts, args.format)
    header = [f"x{i + 1}" for i in range(model.dim)] + ["phi", "lie", "cofactor_residual"]
    workers, parts, counts = [], [], []

    def joined():
        for worker, part in zip(workers, parts):
            counts.append(worker.join())
            yield part

    try:
        for lo, hi in zip(bounds[1:], bounds[2:]):
            fd, part = ioutil.temp_file(args.out)
            parts.append(part)
            try:
                workers.append(_Worker(f"phi-scan worker of columns {lo}:{hi}", _scan_share,
                                       model, states, lo, hi,
                                       functools.partial(ioutil.write_part, fd)))
            finally:
                os.close(fd)
        counts.append(_scan_share(model, states, 0, bounds[1], functools.partial(
            write_table, args.out, header, fmt_name=args.format, parts=joined())))
    finally:
        for worker in workers:
            worker.stop()
        for part in parts:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(part)
    print(f"{npts} samples -> {args.out}{_nonfinite_note(sum(counts))}")
    return 0


def _cmd_manifold(args):
    model = _load(args.model)
    axes = _parse_grid(args.grid, model.dim, min_nodes=2)
    slices = _parse_slice(args.slice, model.dim, model, axes)
    try:
        zs = manifold.zero_set_grid(model, axes, slices, tol_rel=args.tol_rel)
    except ValueError as err:  # a NaN, infinite or negative --tol-rel
        raise ConfigError(str(err)) from err
    header = [f"x{i + 1}" for i in range(model.dim)] + ["phi", "region"]
    write_table(args.out, header, np.column_stack([zs.points, zs.phi_values]), args.format,
                labels=_join_regions(zs.regions, len(zs)))
    print(f"{len(zs)} manifold points ({zs.n_nonfinite} non-finite nodes) -> {args.out}")
    return 0


def _cmd_hyperplane(args):
    model = _load(args.model)
    fps = models.fixed_points(model)
    fps = [fp for fp in fps if fp.region in ("pos", "neg")] or fps
    if not fps:
        raise ConfigError(f"model {model.name!r} has no fixed points")
    style = "last1" if model.dim == 3 else "lambda-ty"
    rows = []
    for fp in fps:
        plane = spectral.tls_hyperplane(model, fp)
        loc = ", ".join(fmt(v) for v in fp.location)
        lam = plane.fast_eigenvalue
        lam_s = fmt(lam.real) if lam.imag == 0 else f"{fmt(lam.real)} {'+' if lam.imag >= 0 else '-'} {fmt(abs(lam.imag))}i"
        print(f"fixed point ({loc})  region={fp.region}"
              f"{' [virtual]' if fp.virtual else ''}")
        print(f"  fast eigenvalue lambda_1 = {lam_s}")
        if plane.eigenvalue != lam.real or lam.imag != 0:
            print(f"  plane eigenvalue (dominant real) = {fmt(plane.eigenvalue)}")
        print(f"  Pi(X) = {plane.equation(style)}")
        rows.append(plane.csv_row())
    if args.out:
        header = [f"c{i + 1}" for i in range(model.dim)] + ["offset"]
        write_table(args.out, header, np.array(rows), args.format)
        print(f"{len(rows)} planes -> {args.out}")
    return 0


def _cmd_curvature(args):
    model = _load(args.model)
    traj = _trajectory(model, args)
    header = ["t"] + [f"kappa{i + 1}" for i in range(model.dim - 1)]
    # one batched frame; a degenerate stack's row is NaN
    kappas = geometry.curvatures(derivative_stack(model, traj.states.T, model.dim)).kappas
    write_table(args.out, header, np.column_stack([traj.times, kappas]), args.format)
    print(f"{len(traj)} samples -> {args.out}{_nonfinite_note(_nonfinite_rows(kappas))}")
    return 0


def _cmd_verify(args):
    if args.all == (args.model is not None):
        raise ConfigError("verify needs exactly one of --model NAME or --all")
    names = models.registry() if args.all else [args.model]
    # model i goes to share i mod k; shares 1..k-1 run in forked workers while
    # this process runs share 0, and the results print in registry order
    k = _share_count(len(names))
    workers = []
    try:
        for s in range(1, k):
            workers.append(_Worker(f"verify worker of {', '.join(names[s::k])}",
                                   _verify_share, names[s::k], args.seed))
        shares = [_verify_share(names[::k], args.seed)] + [w.join() for w in workers]
    finally:
        for worker in workers:
            worker.stop()
    failed = 0
    records = []
    for i, name in enumerate(names):
        results = shares[i % k][i // k]
        if isinstance(results, Exception):
            raise results
        failed += sum(not r.passed for r in results)
        if args.format == "json":
            records += [_check_record(name, r) for r in results]
            continue
        print(f"== {name}")
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            note = f"  ({r.note})" if r.note else ""
            print(f"  [{status}] {r.name}: residual {r.residual:.3e} "
                  f"vs {r.threshold:.1e}{note}")
    if args.format == "json":
        # one check per line; strict JSON, so non-finite numbers are null
        print("[\n" + ",\n".join(json.dumps(rec, allow_nan=False) for rec in records) + "\n]")
    if failed:
        print(f"{failed} check(s) failed", file=sys.stderr)
        return 2
    return 0


def _verify_share(names, seed):
    """The verify results of each model of `names` in turn; the exception that
    stops the share takes the place of its model's results and ends the list."""
    outcomes = []
    for name in names:
        try:
            outcomes.append(verify.verify_model(_load(name), seed=seed))
        except Exception as err:  # raised again in registry order
            outcomes.append(err)
            break
    return outcomes


def _check_record(model_name, r):
    def finite(value):
        return value if math.isfinite(value) else None

    return {"model": model_name, "name": r.name, "residual": finite(r.residual),
            "threshold": finite(r.threshold), "passed": r.passed, "note": r.note,
            "margin_dec": r.margin_dec}


@functools.cache
def build_parser():
    """The one parser of this process, built on first use."""
    parser = _Parser(prog="flowcurv",
                     description="Slow invariant manifolds via curvature of the flow")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-models", help="print the built-in model registry") \
        .set_defaults(func=_cmd_list_models)

    def add_common(p):
        p.add_argument("--model", "-m", required=True,
                       help="registry name or model config path")
        p.add_argument("--out", "-o", required=True, help="output file")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    def add_trajectory(p, x0_help=None, required=True):
        # a tolerance not given is None: `integrate`'s default for it
        p.add_argument("--x0", required=required, help=x0_help)
        p.add_argument("--t-end", type=_positive, required=required)
        p.add_argument("--rel-tol", type=_positive)
        p.add_argument("--abs-tol", type=_positive)

    p = sub.add_parser("integrate", help="integrate a trajectory to CSV")
    add_common(p)
    add_trajectory(p, "initial state, comma separated")
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("phi-scan", help="phi/Lie/cofactor samples on a grid or trajectory")
    add_common(p)
    p.add_argument("--grid", help="grid spec, e.g. x1=-4:4:100,x2=-1:1:100")
    p.add_argument("--slice", default="", help="fixed coordinates, e.g. x3=fp,x4=0")
    add_trajectory(p, "trajectory scan: initial state", required=False)
    p.set_defaults(func=_cmd_phi_scan)

    p = sub.add_parser("manifold", help="extract the phi = 0 point cloud on a grid")
    add_common(p)
    p.add_argument("--grid", required=True)
    p.add_argument("--slice", default="")
    p.add_argument("--tol-rel", type=float, default=1e-9,
                   help="|phi| refinement tolerance relative to the bracket scale")
    p.set_defaults(func=_cmd_manifold)

    p = sub.add_parser("hyperplane", help="TLS invariant hyperplanes at the fixed points")
    p.add_argument("--model", "-m", required=True)
    p.add_argument("--out", "-o", help="optional CSV of plane coefficients")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_hyperplane)

    p = sub.add_parser("curvature", help="Frenet curvatures along a trajectory")
    add_common(p)
    add_trajectory(p)
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("verify", help="run the residual verification suites")
    p.add_argument("--model", "-m")
    p.add_argument("--all", action="store_true", help="verify every built-in model")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="text: a PASS/FAIL table; json: one object per check")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # an OSError here: the output cannot be written; a ModelError: the model
    # loaded, but a later step needs what its config cannot give (a fixed point)
    except (ConfigError, models.ModelError, OSError) as err:
        print(f"flowcurv: config error: {err}", file=sys.stderr)
        return 1
    except (IntegrationError, spectral.SpectralError, np.linalg.LinAlgError,
            FloatingPointError) as err:
        print(f"flowcurv: numerical failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
