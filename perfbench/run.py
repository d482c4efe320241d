"""flowcurv benchmark: four CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload grid-scan --seed 0 --seconds 25 --trace 0

Runs one workload's command sequence through `flowcurv.cli.main(argv)` in
this process with FLOWCURV_THREADS=1, pass after pass, until `--seconds` is
spent (at least MIN_PASSES passes).  Every output is checked outside the
timed region.  `--trace 0` reports the end-to-end metrics from untraced
passes, timings scaled to a reference host speed (see GAUGE_* below);
`--trace 1` alternates untraced and traced passes and reports the per-layer
metrics (see perfbench/README.md).  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Exit status 2, with no
result, when the flowcurv sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

MIN_PASSES = 3          # untraced passes per --trace 0 run
SETUP_PROBES = 9        # fresh processes timed for setup_s (after one warm-up)
GAP_STRIDE = 353        # every 353rd grid-scan node enters the cofactor cross-check,
GAP_TOP = 16            # and so do the 16 nodes with the largest CLI residual

# Host-speed calibration.  On a shared host the same pass runs up to twice as
# long in slow phases that last from a fraction of a second to minutes.
# A reference task timed around every timed interval gauges that speed; the
# interval times REF / (reference time around it) is its duration at the
# reference speed, at which the reference task takes REF.  Passes are gauged
# every GAUGE_INTERVAL_S, from a timer signal, by a fixed
# interpreter-plus-numpy kernel; set-up probes by a bare
# `python3 -c "import numpy"` process start.
GAUGE_ITERATIONS = 5_000
GAUGE_REF_S = 0.01
GAUGE_INTERVAL_S = 0.1
START_REF_S = 0.15

# The metric catalogue of BENCHMARK.json: name -> unit.  `--trace 0` reports
# END_TO_END from untraced passes, `--trace 1` reports PER_LAYER.
END_TO_END = {"setup_s": "s", "wall_s": "s", "work_per_s": "units/s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.self_s": "s",
    "models.load_s": "s", "models.fixed_points_calls": "count",
    "models.fixed_points_s": "s", "models.velocity_calls": "count",
    "models.velocity_s": "s", "models.classify_calls": "count", "models.classify_s": "s",
    "jets.stack_scalar_calls": "count", "jets.stack_scalar_s": "s",
    "jets.stack_scalar_us_per_call": "us", "jets.stack_batch_points": "count",
    "jets.stack_batch_s": "s", "jets.stack_batch_us_per_point": "us",
    "geometry.det_scalar_calls": "count", "geometry.det_scalar_s": "s",
    "geometry.det_batch_matrices": "count", "geometry.det_batch_s": "s",
    "geometry.det_batch_ns_per_matrix": "ns", "geometry.curvatures_calls": "count",
    "geometry.curvatures_s": "s",
    "manifold.zero_set_s": "s", "manifold.refine_phi_calls": "count",
    "manifold.refine_calls_per_point": "ratio", "manifold.zero_set_points": "count",
    "manifold.breakpoint_points": "count", "manifold.darboux_calls": "count",
    "manifold.darboux_s": "s", "manifold.cofactor_gap_dec": "dec",
    "manifold.darboux_gate_margin_dec": "dec",
    "integrate.calls": "count", "integrate.s": "s", "integrate.accepted_steps": "count",
    "integrate.events": "count", "integrate.rhs_per_step": "ratio",
    "spectral.calls": "count", "spectral.s": "s",
    "verify.model_s_max": "s", "verify.checks": "count", "verify.checks_failed": "count",
    "verify.min_margin_dec": "dec",
    "ioutil.rows": "count", "ioutil.bytes": "B", "ioutil.write_s": "s",
    "ioutil.ns_per_row": "ns",
    "accuracy_margin_dec": "dec",
    "trace.overhead_s": "s", "trace.unattributed_s": "s",
}
# printed by --trace 0 for reading, not part of the gated result (see README)
REPORTED = {"setup_raw_s": "s", "wall_raw_s": "s", "host_speed": "ratio",
            "start_speed": "ratio",
            "accuracy_margin_dec": "dec", "fail_share": "ratio"}


def _log(message):
    print(message, flush=True)


# -- environment ---------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_state():
    """(commit, dirty) of the checkout, or ("unknown", None) outside a git tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown", None
    env = dict(os.environ, GIT_DIR=os.path.join(ROOT, ".git"), GIT_WORK_TREE=ROOT)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], env=env, cwd=ROOT,
                                capture_output=True, text=True, timeout=30).stdout.strip()
        status = subprocess.run(["git", "--no-optional-locks", "status", "--porcelain",
                                 "--untracked-files=no"], env=env, cwd=ROOT,
                                capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown", None
    return commit or "unknown", bool(status.strip())


def environment(args, passes):
    import numpy

    commit, dirty = _git_state()
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "FLOWCURV_THREADS": os.environ.get("FLOWCURV_THREADS"),
            "git_commit": commit, "git_dirty": dirty, "seed": args.seed,
            "workload": args.workload, "trace": args.trace, "passes": passes}


# -- passes ----------------------------------------------------------------------

def run_op(cli, op):
    """Run one CLI command in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed operation, not a benchmark crash
            code = "exception: " + traceback.format_exc(limit=3).replace("\n", " | ")
    if code != 0:
        _log(f"  {op.name}: exit {code}; stderr: {err.getvalue().strip()[:500]}")
    return code, out.getvalue()


def untimed_steps(steps):
    """Run timed steps back to back; returns the sum of their durations."""
    return sum(step() for step in steps)


class Samples:
    """Raw durations and their durations at the reference host speed.

    Each sample is a sequence of steps; every step is timed between two
    reference timings (shared with the neighbouring steps), and the sample's
    scaled duration sums step * REF / (reference time around the step).
    """

    def __init__(self, reference, ref_seconds):
        self.reference, self.ref_seconds = reference, ref_seconds
        self.raw, self.scaled = [], []
        self._last = None           # reference time right after the previous step

    def time(self, steps):
        """Time the steps (callables returning their duration); returns the raw sum."""
        raw = scaled = 0.0
        for step in steps:
            before = self._last if self._last is not None else self.reference()
            duration = step()
            self._last = self.reference()
            raw += duration
            scaled += duration * self.ref_seconds / (0.5 * (before + self._last))
        self.raw.append(raw)
        self.scaled.append(scaled)
        return raw

    @property
    def scale(self):
        return [s / r for s, r in zip(self.scaled, self.raw)]


class GaugedSamples(Samples):
    """Pass durations at the reference host speed, gauged inside the pass.

    A SIGALRM timer interrupts the pass every GAUGE_INTERVAL_S and its handler
    times the kernel, as do the pass's start and end.  The readings cut the
    pass into intervals; each contributes its duration * GAUGE_REF_S / (mean
    kernel time at its two ends), and kernel time is part of no interval.
    """

    def __init__(self):
        super().__init__(gauge_seconds, GAUGE_REF_S)
        self._readings = []         # (start, kernel time) of each reading
        self._active = False
        signal.signal(signal.SIGALRM, self._on_timer)

    def _read(self):
        start = time.perf_counter()
        self._readings.append((start, self.reference()))

    def _on_timer(self, signum, frame):
        if self._active:
            self._active = False    # no reading inside a reading
            self._read()
            self._active = True

    def time(self, steps):
        """Run the steps as one gauged sample; returns its raw duration."""
        self._readings = []
        self._read()
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, GAUGE_INTERVAL_S, GAUGE_INTERVAL_S)
        try:
            for step in steps:
                step()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._active = False
        self._read()
        raw = scaled = 0.0
        for (start0, kernel0), (start1, kernel1) in zip(self._readings, self._readings[1:]):
            duration = start1 - (start0 + kernel0)
            raw += duration
            scaled += duration * self.ref_seconds / (0.5 * (kernel0 + kernel1))
        self.raw.append(raw)
        self.scaled.append(scaled)
        return raw


class Ledger:
    """Every command run with its output digest and the problems found in it.

    An operation is one command run.  A check that fails on an output fails
    every run that produced the same bytes.
    """

    def __init__(self):
        self.runs = []              # [label, op name, digest, problems]

    def record(self, label, op, digest, problems):
        self.runs.append([label, op.name, digest, list(problems)])
        if problems:
            _log(f"  FAILED {label} {op.name}: {'; '.join(problems)}")

    def flag(self, op, digest, problems):
        for run in self.runs:
            if run[1] == op.name and run[2] == digest:
                run[3].extend(problems)
        if problems:
            _log(f"  FAILED checks of {op.name}: {'; '.join(problems)}")

    @property
    def attempted(self):
        return len(self.runs)

    @property
    def failures(self):
        return [f"{label} {name}: {'; '.join(problems)}"
                for label, name, _, problems in self.runs if problems]


class Runner:
    """Runs passes of one workload and checks each command's output."""

    def __init__(self, cli, workloads, wl):
        self.cli, self.w, self.wl = cli, workloads, wl
        self.ledger = Ledger()
        self.reference = {}         # op name -> digest of its first run
        self.last = {}              # op name -> (code, stdout, digest) of its latest run

    def _record(self, label, op, code, stdout, what):
        """Ledger entry of one command run; returns its output digest."""
        digest = self.w.digest(op, stdout) if code == 0 else None
        problems = [] if code == 0 else [f"exit code {code}"]
        if digest is not None and digest != self.reference.setdefault(op.name, digest):
            problems.append(f"{what} differs from the first pass")
        self.ledger.record(label, op, digest, problems)
        return digest

    def run_pass(self, label, timer=untimed_steps):
        """One pass, each command a timed step; digests are taken after the clock stops."""
        results = []

        def step(op):
            def timed():
                start = time.perf_counter()
                results.append((op, run_op(self.cli, op)))
                return time.perf_counter() - start
            return timed

        wall = timer([step(op) for op in self.wl.ops])
        for op, (code, stdout) in results:
            digest = self._record(label, op, code, stdout, "output")
            self.last[op.name] = (code, stdout, digest)
        return wall

    def check_outputs(self, model_lookup):
        """Full checks of the latest outputs; returns the values they measured."""
        values = {}
        for op in self.wl.ops:
            code, stdout, digest = self.last[op.name]
            res = self.w.check(op, code, stdout, model_lookup)
            self.ledger.flag(op, digest, res.failures)
            values[op.name] = res.values
        return values

    def check_threads(self, threads):
        """Re-run every command at FLOWCURV_THREADS=threads; the bytes must not change."""
        os.environ["FLOWCURV_THREADS"] = str(threads)
        try:
            for op in self.wl.ops:
                self._record(f"threads={threads}", op, *run_op(self.cli, op),
                             f"output at FLOWCURV_THREADS={threads}")
        finally:
            os.environ["FLOWCURV_THREADS"] = "1"


def gauge_seconds():
    """Time of the fixed kernel: an interpreter loop with small numpy calls, no flowcurv."""
    import numpy as np

    v, m = np.arange(5.0), np.eye(5)
    start = time.perf_counter()
    acc = 0.0
    for i in range(GAUGE_ITERATIONS):
        acc += float((m @ v)[i % 5]) + (i * i) % 7
    return time.perf_counter() - start


def timed_passes(budget, min_passes, run_one):
    """Call run_one() until the budget would be exceeded; returns the durations."""
    walls = []
    start = time.perf_counter()
    while True:
        walls.append(run_one())
        elapsed = time.perf_counter() - start
        if len(walls) >= min_passes and elapsed + statistics.median(walls) > budget:
            return walls


def _start_seconds(cmd, env):
    """Monotonic time from starting `cmd` to the time it prints when ready."""
    start = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1]) - start


def setup_seconds(wl):
    """Start-to-ready times of fresh set-up processes, after one warm-up."""
    env = dict(os.environ, FLOWCURV_THREADS="1")
    probe = [sys.executable, os.path.join(HERE, "setup_probe.py")] + wl.setup_args
    bare = [sys.executable, "-c", "import time, numpy; print(repr(time.monotonic()))"]
    _start_seconds(probe, env)
    samples = Samples(lambda: _start_seconds(bare, env), START_REF_S)
    for _ in range(SETUP_PROBES):
        samples.time([lambda: _start_seconds(probe, env)])
    return samples


# -- metrics ---------------------------------------------------------------------

def accuracy_margin(values):
    """Smallest log10(gate / worst residual) over the commands, in decades.

    Defined on grid-scan, trajectory and verify-all; 0.0 on zero-set, which
    has no gate (its known defect is counted by manifold.breakpoint_points).
    """
    return min((v["margin"] for v in values.values() if "margin" in v), default=0.0)


def cofactor_gap(wl):
    """log10 of the CLI's max cofactor_residual over the library's, on a node sample.

    The sample is every GAP_STRIDE-th grid-scan node plus the GAP_TOP nodes
    with the largest CLI residual; the library's darboux_residual is
    evaluated at the same states.
    """
    import numpy as np
    from flowcurv import darboux_residual, get_model

    with open(wl.ops[0].out, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        table = np.loadtxt(fh, delimiter=",", usecols=list(range(header.index("phi")))
                           + [header.index("cofactor_residual")])
    cli_resid = table[:, -1]
    sample = np.union1d(np.arange(0, len(table), GAP_STRIDE),
                        np.argsort(cli_resid)[-GAP_TOP:])
    lib = darboux_residual(get_model("chua5-pwl"), table[sample, :-1].T)
    return math.log10(float(np.max(cli_resid[sample])) / float(np.max(lib)))


def darboux_gate_margin(w):
    """log10(Darboux gate / library darboux_residual) at the known failing state.

    Negative while the defect stands: verify's Darboux check fails there.
    """
    from flowcurv import darboux_residual, get_model

    residual = darboux_residual(get_model(w.DARBOUX_DEFECT_MODEL), w.DARBOUX_DEFECT_STATE)
    return math.log10(w.DARBOUX_GATE / float(residual))


def summary(samples):
    return {"median": statistics.median(samples), "min": min(samples),
            "max": max(samples), "n": len(samples), "samples": samples}


# -- main ------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "flowcurv", "cli.py")):
        print(f"perfbench: flowcurv sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    os.environ["FLOWCURV_THREADS"] = "1"
    try:
        import workloads as w
        from flowcurv import cli, models
    except ImportError as err:
        print(f"perfbench: cannot import flowcurv: {err}", file=sys.stderr)
        return 2
    if args.workload not in w.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(w.WORKLOADS)}", file=sys.stderr)
        return 2

    outdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(outdir, exist_ok=True)
    try:
        return _run(args, w, cli, models, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)


def _run(args, w, cli, models, outdir):
    wl = w.build(args.workload, args.seed, outdir)
    runner = Runner(cli, w, wl)
    _log(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
         f"seconds={args.seconds:g}")
    for op in wl.ops:
        _log(f"  flowcurv {' '.join(op.argv)}")
    if args.trace:
        metrics, outputs, spans, passes = _traced_run(args, wl, runner, models)
        wanted = PER_LAYER
    else:
        metrics, outputs = _untraced_run(args, wl, runner, models)
        spans, passes = None, metrics["wall_s"]["n"]
        wanted = END_TO_END
    missing = set(wanted) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")

    ledger = runner.ledger
    report = {
        "workload": args.workload, "work_unit": wl.work_unit,
        "attempted": ledger.attempted, "failed": len(ledger.failures),
        "failures": ledger.failures, "metrics": metrics, "outputs": outputs,
        "spans": spans,
        "env": environment(args, passes),
    }
    _print_report(report)
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {k: {"value": metrics[k]["median"], "unit": _unit(k)} for k in wanted},
    }))
    return 0


def _untraced_run(args, wl, runner, models):
    setup = setup_seconds(wl)
    passes = GaugedSamples()
    timed_passes(args.seconds, MIN_PASSES, lambda: runner.run_pass("pass", passes.time))
    # ru_maxrss before the checks, which read the outputs back
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = runner.check_outputs(models.get_model)
    if args.workload == "grid-scan":
        runner.check_threads(2)
    units = wl.work_units or values["verify --all"].get("checks", 0)
    ledger = runner.ledger
    wall = summary(passes.scaled)
    return {
        "setup_s": summary(setup.scaled),
        "wall_s": wall,
        "work_per_s": {"median": units / wall["median"], "n": wall["n"]},
        "peak_rss_mb": {"median": peak_mb, "n": 1},
        "setup_raw_s": summary(setup.raw),
        "wall_raw_s": summary(passes.raw),
        "host_speed": summary(passes.scale),
        "start_speed": summary(setup.scale),
        "accuracy_margin_dec": {"median": accuracy_margin(values), "n": 1},
        "fail_share": {"median": len(ledger.failures) / ledger.attempted,
                       "n": ledger.attempted},
    }, values


def _traced_run(args, wl, runner, models):
    """Alternate untraced and traced passes; per-layer metrics are medians over pairs."""
    import tracing

    untraced, traced, per_pass, tracers = [], [], [], []

    def one_pair():
        untraced.append(runner.run_pass("pass"))
        tracer = tracing.Tracer()
        tracers.append(tracer)
        tracer.install()
        try:
            traced.append(runner.run_pass("traced pass"))
        finally:
            tracer.uninstall()
        layer = tracing.layer_metrics(tracer)
        layer["trace.unattributed_s"] = traced[-1] - layer.pop("trace.top_level_s")
        per_pass.append(layer)
        return traced[-1] + untraced[-1]

    # the first pass of a process runs slower; keep it out of the overhead
    warm = runner.run_pass("warm-up pass")
    timed_passes(args.seconds - warm, 1, one_pair)
    values = runner.check_outputs(models.get_model)
    metrics = {key: {"median": statistics.median(p[key] for p in per_pass),
                     "n": len(per_pass)} for key in per_pass[0]}
    metrics["trace.overhead_s"] = {
        "median": statistics.median(traced) - statistics.median(untraced),
        "n": len(traced)}
    extra = _outside_metrics(args.workload, wl, values, accuracy_margin(values))
    if args.workload == "verify-all":
        extra["manifold.darboux_gate_margin_dec"] = darboux_gate_margin(runner.w)
    metrics.update({k: {"median": v, "n": 1} for k, v in extra.items()})
    return metrics, values, [list(row) for row in tracers[-1].table()], len(traced)


def _outside_metrics(name, wl, values, margin):
    """Per-layer values read from outputs, outside the timed and traced passes."""
    verify = values.get("verify --all", {})
    return {
        "manifold.breakpoint_points": sum(v.get("breakpoint_points", 0)
                                          for v in values.values()),
        "manifold.cofactor_gap_dec": cofactor_gap(wl) if name == "grid-scan" else 0.0,
        "manifold.darboux_gate_margin_dec": 0.0,
        "verify.checks": verify.get("checks", 0),
        "verify.checks_failed": verify.get("checks_failed", 0),
        "verify.min_margin_dec": margin if name == "verify-all" else 0.0,
        "accuracy_margin_dec": margin,
    }


def _unit(name):
    return END_TO_END.get(name) or PER_LAYER.get(name) or REPORTED[name]


def _print_report(report):
    _log(f"== {report['workload']}: {report['failed']} of {report['attempted']} "
         f"operations failed")
    for failure in report["failures"]:
        _log(f"  failure: {failure}")
    for name, stats in report["metrics"].items():
        unit = _unit(name)
        if name == "work_per_s":
            unit += f" ({report['work_unit']}/s)"
        spread = (f"  min {stats['min']:.6g} max {stats['max']:.6g}"
                  if "min" in stats else "")
        _log(f"  {name:36s} {stats['median']:14.6g} {unit:24s} n={stats['n']}{spread}")
    if report["spans"]:
        _log("  spans of the last traced pass: name, variant, parent, calls, total s, self s")
        for row in report["spans"]:
            _log("    {:34s} {:7s} {:30s} {:8d} {:10.4f} {:10.4f}".format(*row))
    _log("result " + json.dumps(report, default=str))


if __name__ == "__main__":
    sys.exit(main())
