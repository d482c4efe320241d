"""Command-line front end.

Commands: list-models, integrate, phi-scan, manifold, hyperplane, curvature,
verify.  All numeric output uses shortest round-trip decimals, so identical
configurations produce byte-identical files.  Exit codes: 0 success, 1
configuration error, 2 numerical failure (diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import geometry, manifold, models, spectral, verify
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
        raw[_axis_index(name.strip(), dim)] = value.strip()
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


def _nonfinite_note(values):
    """' (k non-finite rows)' for the k rows of `values` (rows, columns) that
    hold a NaN or an infinity; '' when there is none."""
    count = int(np.count_nonzero(~np.isfinite(values).all(axis=1)))
    return f" ({count} non-finite rows)" if count else ""


# -- commands -----------------------------------------------------------------

def _cmd_list_models(args):
    for name in models.registry():
        print(name)
    return 0


def _cmd_integrate(args):
    model = _load(args.model)
    x0 = _parse_vector(args.x0, model.dim)
    traj = integrate(model, x0, args.t_end, rel_tol=args.rel_tol, abs_tol=args.abs_tol)
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
        states, _ = manifold.grid_states(model.dim, axes, slices)
    else:
        if args.t_end is None:
            raise ConfigError("--x0 requires --t-end")
        if args.slice:
            raise ConfigError("--slice applies to a grid scan (--grid), not to --x0")
        x0 = _parse_vector(args.x0, model.dim)
        traj = integrate(model, x0, args.t_end,
                         rel_tol=1e-9 if args.rel_tol is None else args.rel_tol,
                         abs_tol=1e-12 if args.abs_tol is None else args.abs_tol)
        states = traj.states.T
        del traj
    # one (n + 3, npts) table: the states, then phi, lie and the cofactor
    # residual, each filled in place; written through its (rows, columns) view
    n, npts = states.shape
    table = np.empty((n + 3, npts))
    table[:n] = states
    del states
    # 2,048-column chunks bound the memory of the longdouble stacks
    for start in range(0, npts, 2048):
        block = slice(start, start + 2048)
        sample = manifold.manifold_sample(model, table[:n, block])
        table[n:, block] = sample.phi, sample.lie, sample.cofactor_residual
    header = [f"x{i + 1}" for i in range(n)] + ["phi", "lie", "cofactor_residual"]
    write_table(args.out, header, table.T, args.format)
    print(f"{npts} samples -> {args.out}{_nonfinite_note(table[n:].T)}")
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
    x0 = _parse_vector(args.x0, model.dim)
    traj = integrate(model, x0, args.t_end, rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    header = ["t"] + [f"kappa{i + 1}" for i in range(model.dim - 1)]
    # one batched frame; a degenerate stack's row is NaN
    kappas = geometry.curvatures(derivative_stack(model, traj.states.T, model.dim)).kappas
    write_table(args.out, header, np.column_stack([traj.times, kappas]), args.format)
    print(f"{len(traj)} samples -> {args.out}{_nonfinite_note(kappas)}")
    return 0


def _cmd_verify(args):
    if args.all == (args.model is not None):
        raise ConfigError("verify needs exactly one of --model NAME or --all")
    names = models.registry() if args.all else [args.model]
    failed = 0
    records = []
    for name in names:
        model = _load(name)
        results = verify.verify_model(model, seed=args.seed)
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


def _check_record(model_name, r):
    def finite(value):
        return value if math.isfinite(value) else None

    return {"model": model_name, "name": r.name, "residual": finite(r.residual),
            "threshold": finite(r.threshold), "passed": r.passed, "note": r.note,
            "margin_dec": r.margin_dec}


def build_parser():
    parser = _Parser(prog="flowcurv",
                     description="Slow invariant manifolds via curvature of the flow")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-models", help="print the built-in model registry") \
        .set_defaults(func=_cmd_list_models)

    def add_common(p, needs_out=True):
        p.add_argument("--model", "-m", required=True,
                       help="registry name or model config path")
        if needs_out:
            p.add_argument("--out", "-o", required=True, help="output file")
            p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("integrate", help="integrate a trajectory to CSV")
    add_common(p)
    p.add_argument("--x0", required=True, help="initial state, comma separated")
    p.add_argument("--t-end", type=_positive, required=True)
    p.add_argument("--rel-tol", type=_positive, default=1e-9)
    p.add_argument("--abs-tol", type=_positive, default=1e-12)
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("phi-scan", help="phi/Lie/cofactor samples on a grid or trajectory")
    add_common(p)
    p.add_argument("--grid", help="grid spec, e.g. x1=-4:4:100,x2=-1:1:100")
    p.add_argument("--slice", default="", help="fixed coordinates, e.g. x3=fp,x4=0")
    p.add_argument("--x0", help="trajectory scan: initial state")
    p.add_argument("--t-end", type=_positive)
    # trajectory scan only; None tells a given value from the 1e-9/1e-12 default
    p.add_argument("--rel-tol", type=_positive)
    p.add_argument("--abs-tol", type=_positive)
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
    p.add_argument("--x0", required=True)
    p.add_argument("--t-end", type=_positive, required=True)
    p.add_argument("--rel-tol", type=_positive, default=1e-9)
    p.add_argument("--abs-tol", type=_positive, default=1e-12)
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("verify", help="run the residual verification suites")
    p.add_argument("--model", "-m")
    p.add_argument("--all", action="store_true", help="verify every built-in model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="text: a PASS/FAIL table; json: one object per check")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as err:  # an OSError here: the output cannot be written
        print(f"flowcurv: config error: {err}", file=sys.stderr)
        return 1
    except (IntegrationError, spectral.SpectralError, np.linalg.LinAlgError,
            FloatingPointError) as err:
        print(f"flowcurv: numerical failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
