"""The four benchmark workloads: seeded inputs, CLI command sequences, checks.

Each workload is a list of operations.  An operation is one `flowcurv`
command line, run in-process through `flowcurv.cli.main(argv)`.  Its output
is checked outside the timed region: exit code 0, the expected row count,
finite numeric columns, plus the per-command criteria (event states on
|x1| = 1 within 1e-9, every verify check PASS).  Checks never loosen to hide
a defect of the program; known defects show up as metrics instead.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
from dataclasses import dataclass, field

# Verify gates the margins are measured against (the program's own numbers).
DARBOUX_GATE = 1e-8          # verify's Darboux residual threshold
EVENT_GATE = 1e-9            # |x1| = 1 deadband of the integrator's events
BREAKPOINT_TOL = 1e-9        # a zero-set point this close to |u| = 1 sits on a breakpoint

# Seeded inputs: grid windows shift by up to this share of a cell, the
# trajectory start moves by up to X0_JITTER per coordinate.
GRID_JITTER = 0.05
X0_JITTER = 1e-3

# verify-all runs `verify --all` at this seed whatever the benchmark seed.
# verify draws its own random sample points; on rare seeds (1913053642 is
# one, none of 43 other random seeds tried is) the chua5-pwl Darboux check
# draws a point whose relative residual exceeds the 1e-8 gate, and verify
# reports FAIL.  That defect is measured by the
# per-layer metric manifold.darboux_gate_margin_dec at DARBOUX_DEFECT_STATE
# instead of failing a random share of the benchmark's runs.
VERIFY_SEED = 0
# The chua5-pwl state where `verify --all --seed 1913053642` fails: the
# library darboux_residual is 1.12e-8 there, |phi| ~ 9e33 against ~1e35 at
# typical in-region states.
DARBOUX_DEFECT_MODEL = "chua5-pwl"
DARBOUX_DEFECT_STATE = (-1.6857146386220352, -0.7494850484650319, -1.8839647481935815,
                        -1.4976601278147217, -0.8128313222930963)

WORKLOADS = ("grid-scan", "zero-set", "trajectory", "verify-all")


@dataclass
class Operation:
    """One CLI command of a workload pass."""

    name: str
    argv: list
    out: str | None = None      # output file the command writes, if any
    kind: str = ""              # which checker reads the output
    info: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: list
    work_units: float           # numerator of work_per_s
    work_unit: str              # what one unit is
    setup_args: list            # setup_probe.py arguments: models to build


def _shift_grid(spec, rng, seed):
    """Shift each axis window of `x1=lo:hi:count,...` by a sub-cell offset.

    Seed 0 keeps the window; any other seed moves it by u * cell with u
    uniform in [-GRID_JITTER, GRID_JITTER), so every node moves but the node
    count, and nearly the number of grid edges the zero set crosses, do not.
    """
    parts = []
    for part in spec.split(","):
        name, rest = part.split("=")
        lo, hi, count = rest.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
        if seed:
            offset = (2 * rng.random() - 1) * GRID_JITTER * (hi - lo) / (count - 1)
            lo, hi = lo + offset, hi + offset
        parts.append(f"{name}={lo!r}:{hi!r}:{count}")
    return ",".join(parts)


def _grid_nodes(spec):
    nodes = 1
    for part in spec.split(","):
        nodes *= int(part.rsplit(":", 1)[1])
    return nodes


def build(name, seed, outdir):
    """The workload's operations for `seed`; the same seed gives the same argv."""
    rng = random.Random(seed)

    def out(stem):
        return f"{outdir}/{name}-{stem}.csv"

    if name == "grid-scan":
        grid = _shift_grid("x1=-4:4:300,x2=-1:1:300", rng, seed)
        nodes = _grid_nodes(grid)
        ops = [Operation("phi-scan chua5-pwl",
                         ["phi-scan", "--model", "chua5-pwl", "--grid", grid,
                          "--slice", "x3=0,x4=0,x5=0", "--out", out("scan")],
                         out=out("scan"), kind="phi-scan", info={"rows": nodes})]
        return Workload(name, ops, nodes, "grid nodes", ["chua5-pwl"])
    if name == "zero-set":
        cubic = _shift_grid("x1=-2:2:10,x2=-2:2:10,x3=-2:2:10", rng, seed)
        pwl = _shift_grid("x1=-3:3:60,x2=-1:1:60", rng, seed)
        ops = [Operation("manifold chua4-cubic",
                         ["manifold", "--model", "chua4-cubic", "--grid", cubic,
                          "--slice", "x4=fp", "--out", out("cubic")],
                         out=out("cubic"), kind="manifold",
                         info={"model": "chua4-cubic"}),
               Operation("manifold chua3-pwl",
                         ["manifold", "--model", "chua3-pwl", "--grid", pwl,
                          "--slice", "x3=0", "--out", out("pwl")],
                         out=out("pwl"), kind="manifold", info={"model": "chua3-pwl"})]
        return Workload(name, ops, _grid_nodes(cubic) + _grid_nodes(pwl), "grid nodes",
                        ["--fp", "chua4-cubic", "chua3-pwl"])
    if name == "trajectory":
        x0 = [0.1 + (2 * rng.random() - 1) * X0_JITTER if seed else 0.1 for _ in range(3)]
        x0_text = ",".join(repr(v) for v in x0)
        ops = [Operation("integrate chua3-pwl t=200",
                         ["integrate", "--model", "chua3-pwl", "--x0", x0_text,
                          "--t-end", "200", "--out", out("traj")],
                         out=out("traj"), kind="integrate"),
               Operation("curvature chua3-pwl t=50",
                         ["curvature", "--model", "chua3-pwl", "--x0", x0_text,
                          "--t-end", "50", "--out", out("kappa")],
                         out=out("kappa"), kind="curvature")]
        return Workload(name, ops, 250.0, "model time units", ["chua3-pwl"])
    if name == "verify-all":
        ops = [Operation("verify --all", ["verify", "--all", "--seed", str(VERIFY_SEED)],
                         kind="verify")]
        # work units: the number of checks, counted from the output
        return Workload(name, ops, 0.0, "checks", ["--all"])
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


def digest(op, stdout):
    """Hash of everything the command produced: its file bytes and stdout."""
    h = hashlib.sha256(stdout.encode())
    if op.out:
        with open(op.out, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def _rows(path):
    """Header and rows of a CSV the CLI wrote, streamed one line at a time."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        for line in fh:
            yield header, line.rstrip("\n").split(",")


def _reported_count(stdout):
    match = re.match(r"(\d+) ", stdout)
    return int(match.group(1)) if match else -1


def _log_margin(gate, worst):
    return math.log10(gate / worst) if worst > 0 else math.inf


class CheckResult:
    """Failures and measurements from checking one operation's output."""

    def __init__(self):
        self.failures = []
        self.values = {}

    def require(self, ok, what):
        if not ok:
            self.failures.append(what)


def check(op, code, stdout, model_lookup=None):
    """Check one operation's exit code and output; returns a CheckResult.

    `model_lookup(name)` returns a flowcurv model; the zero-set checker uses
    it to find returned points that sit on a PWL breakpoint.
    """
    res = CheckResult()
    res.require(code == 0, f"exit code {code}")
    if code != 0:
        return res
    if op.kind == "phi-scan":
        _check_phi_scan(op, stdout, res)
    elif op.kind == "manifold":
        _check_manifold(op, stdout, res, model_lookup)
    elif op.kind == "integrate":
        _check_integrate(op, stdout, res)
    elif op.kind == "curvature":
        _check_curvature(op, stdout, res)
    elif op.kind == "verify":
        _check_verify(stdout, res)
    return res


def _finite_columns(op, res, columns):
    """Row count and finiteness of the named columns; returns (rows, column values)."""
    count, bad = 0, 0
    kept = {c: [] for c in columns}
    for header, row in _rows(op.out):
        count += 1
        for c in columns:
            value = float(row[header.index(c)])
            if not math.isfinite(value):
                bad += 1
            kept[c].append(value)
    res.require(bad == 0, f"{bad} non-finite values in {', '.join(columns)}")
    return count, kept


def _check_phi_scan(op, stdout, res):
    count, cols = _finite_columns(op, res, ["phi", "lie", "cofactor_residual"])
    expected = op.info["rows"]
    res.require(count == expected, f"{count} rows, expected {expected}")
    res.require(_reported_count(stdout) == count, "row count differs from the CLI report")
    worst = max(cols["cofactor_residual"], default=0.0)
    res.values["max_cofactor_residual"] = worst
    res.values["margin"] = _log_margin(DARBOUX_GATE, worst)


def _check_manifold(op, stdout, res, model_lookup):
    count, _ = _finite_columns(op, res, ["phi"])
    res.require(count == _reported_count(stdout), "row count differs from the CLI report")
    res.require(count > 0, "empty zero set")
    model = model_lookup(op.info["model"])
    on_breakpoint = 0
    for _, row in _rows(op.out):
        point = [float(v) for v in row[:model.dim]]
        on_breakpoint += any(abs(abs(float(arg.eval(point))) - 1.0) <= BREAKPOINT_TOL
                             for arg in model.pwl_args)
    res.values["points"] = count
    res.values["breakpoint_points"] = on_breakpoint


def _check_integrate(op, stdout, res):
    match = re.match(r"(\d+) samples, (\d+) region crossings", stdout)
    res.require(match is not None, "no sample/crossing report on stdout")
    if match is None:
        return
    samples, events = int(match.group(1)), int(match.group(2))
    count, cols = _finite_columns(op, res, ["t", "x1", "x2", "x3"])
    res.require(count == samples, f"{count} rows, CLI reported {samples}")
    # every event row lies on |x1| = 1; nothing else comes within the gate
    errors = sorted(abs(abs(x1) - 1.0) for x1 in cols["x1"])
    on_boundary = sum(e <= EVENT_GATE for e in errors)
    res.require(on_boundary == events,
                f"{on_boundary} rows within {EVENT_GATE:g} of |x1| = 1, "
                f"{events} events reported")
    worst = errors[events - 1] if events else 0.0
    res.values["events"] = events
    res.values["samples"] = samples
    res.values["max_event_error"] = worst
    res.values["margin"] = _log_margin(EVENT_GATE, worst)


def _check_curvature(op, stdout, res):
    count, _ = _finite_columns(op, res, ["t", "kappa1", "kappa2"])
    res.require(count == _reported_count(stdout), "row count differs from the CLI report")
    res.require(count > 1, "empty curvature table")


_VERIFY_LINE = re.compile(r"\s+\[(PASS|FAIL)\] (.*): residual (\S+) vs (\S+)")


def _check_verify(stdout, res):
    sections = stdout.count("\n== ") + stdout.startswith("== ")
    res.require(sections == 7, f"{sections} model sections, expected 7")
    checks, failed, margins = 0, [], [(math.inf, "")]
    for line in stdout.splitlines():
        match = _VERIFY_LINE.match(line)
        if not match:
            continue
        checks += 1
        status, name, residual, threshold = match.groups()
        residual, threshold = float(residual), float(threshold)
        if status != "PASS":
            failed.append(name)
        if residual > 0 and threshold > 0:
            # residual <= threshold for gates, >= for contrast ratios; the
            # margin is the distance on the passing side, negative on a FAIL
            margin = abs(math.log10(threshold / residual))
            margins.append((margin if status == "PASS" else -margin, name))
    res.require(checks > 0, "no verify checks parsed")
    res.require(not failed, f"checks failed: {', '.join(failed)}")
    res.values["checks"] = checks
    res.values["checks_failed"] = len(failed)
    res.values["margin"], res.values["margin_check"] = min(margins)
