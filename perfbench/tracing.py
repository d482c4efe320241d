"""Span tracing of flowcurv's public functions, installed from outside.

`Tracer.install()` wraps each traced function and rebinds every module-level
name in the `flowcurv` package that refers to it, so callers that did
`from .jets import derivative_stack` see the wrapper too; `ModelDef.velocity`
and `ModelDef.classify` are wrapped on the class.  Each call is a span with a
name, a start, an end and a parent span.  Spans stay in memory, aggregated
per (span name, variant, parent span name), and `uninstall()` restores every
binding.

A span name is `layer.function`.  Self time is a span's duration minus the
time its child spans cover.  A layer's busy time counts only spans whose
parent belongs to another layer, so recursion inside a layer (spectrum_at
under tls_hyperplane) is not counted twice.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name)
TRACED = [
    ("flowcurv.cli", "main", "cli.main"),
    ("flowcurv.models", "load_model", "models.load_model"),
    ("flowcurv.models", "fixed_points", "models.fixed_points"),
    ("flowcurv.jets", "derivative_stack", "jets.derivative_stack"),
    ("flowcurv.geometry", "det_scaled", "geometry.det_scaled"),
    ("flowcurv.geometry", "curvatures", "geometry.curvatures"),
    ("flowcurv.manifold", "phi", "manifold.phi"),
    ("flowcurv.manifold", "zero_set_grid", "manifold.zero_set_grid"),
    ("flowcurv.manifold", "darboux_residual", "manifold.darboux_residual"),
    ("flowcurv.integrate", "integrate", "integrate.integrate"),
    ("flowcurv.spectral", "spectrum_at", "spectral.spectrum_at"),
    ("flowcurv.spectral", "tls_hyperplane", "spectral.tls_hyperplane"),
    ("flowcurv.spectral", "coplanarity_equivalence", "spectral.coplanarity_equivalence"),
    ("flowcurv.spectral", "hypercoplanarity_check", "spectral.hypercoplanarity_check"),
    ("flowcurv.spectral", "darboux_check_plane", "spectral.darboux_check_plane"),
    ("flowcurv.verify", "verify_model", "verify.verify_model"),
    ("flowcurv.ioutil", "write_table", "ioutil.write_table"),
]
METHODS = [("velocity", "models.velocity"), ("classify", "models.classify")]

ROOT = "<root>"


def _layer(name):
    return name.split(".", 1)[0]


def _stack_variant(args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    if np.ndim(x) > 1:
        return "batch", {"items": int(np.shape(x)[1])}
    return "scalar", {}


def _det_variant(args, kwargs, result):
    m = args[0] if args else kwargs["matrix"]
    if np.ndim(m) > 2:
        return "batch", {"items": int(np.prod(np.shape(m)[:-2]))}
    return "scalar", {}


def _zero_set_counts(args, kwargs, result):
    return "", {"items": len(result)}


def _integrate_counts(args, kwargs, result):
    # accepted steps: every sample after the first, event splits included
    return "", {"items": len(result.times) - 1, "events": len(result.events)}


def _write_counts(args, kwargs, result):
    path, _, rows = args[:3]
    return "", {"items": len(rows), "bytes": os.path.getsize(path)}


_ANNOTATE = {
    "jets.derivative_stack": _stack_variant,
    "geometry.det_scaled": _det_variant,
    "manifold.phi": _stack_variant,
    "manifold.zero_set_grid": _zero_set_counts,
    "integrate.integrate": _integrate_counts,
    "ioutil.write_table": _write_counts,
}


class Aggregate:
    __slots__ = ("calls", "total", "child", "max", "counts")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.max = 0.0
        self.counts = defaultdict(int)


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.spans = defaultdict(Aggregate)   # (name, variant, parent name)
        self._stack = [[ROOT, 0.0]]           # [name, child time] per open span
        self._restore = []

    def _wrap(self, name, fn):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        annotate = _ANNOTATE.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
            variant, counts = annotate(args, kwargs, result) if annotate else ("", {})
            agg = spans[(name, variant, parent[0])]
            agg.calls += 1
            agg.total += elapsed
            agg.child += frame[1]
            agg.max = max(agg.max, elapsed)
            for key, value in counts.items():
                agg.counts[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        from flowcurv import models

        package = [m for n, m in list(sys.modules.items())
                   if n == "flowcurv" or n.startswith("flowcurv.")]
        for modname, attr, name in TRACED:
            original = getattr(importlib.import_module(modname), attr)
            wrapper = self._wrap(name, original)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for attr, name in METHODS:
            original = models.ModelDef.__dict__[attr]
            self._restore.append((models.ModelDef, attr, original))
            setattr(models.ModelDef, attr, self._wrap(name, original))

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- queries -------------------------------------------------------------
    def _select(self, name, variant=None, parent=None, outer=False):
        """Aggregates of span `name`, or of every span of layer `name`.

        `outer` drops spans nested in the selection itself: in the same
        layer for a layer query, in the same span name for a span query.
        """
        key = _layer if "." not in name else (lambda n: n)
        for (n, v, p), agg in self.spans.items():
            if key(n) != name:
                continue
            if variant is not None and v != variant:
                continue
            if parent is not None and p != parent:
                continue
            if outer and key(p) == name:
                continue
            yield agg

    def calls(self, name, **where):
        return sum(a.calls for a in self._select(name, **where))

    def seconds(self, name, **where):
        """Busy time of a span name or a layer, nested repeats counted once."""
        return sum(a.total for a in self._select(name, outer=True, **where))

    def self_seconds(self, name, **where):
        return sum(a.total - a.child for a in self._select(name, **where))

    def count(self, name, key, **where):
        return sum(a.counts[key] for a in self._select(name, **where))

    def longest(self, name):
        return max((a.max for a in self._select(name)), default=0.0)

    def table(self):
        """Aggregated spans as rows: name, variant, parent, calls, total s, self s."""
        return [(n, v, p, a.calls, a.total, a.total - a.child)
                for (n, v, p), a in sorted(self.spans.items(),
                                           key=lambda kv: -kv[1].total)]


def layer_metrics(tr):
    """Per-layer metrics of one traced pass (timings in s unless named otherwise)."""

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    m = {}
    m["cli.self_s"] = tr.self_seconds("cli.main")
    m["models.load_s"] = tr.seconds("models.load_model")
    m["models.fixed_points_calls"] = tr.calls("models.fixed_points")
    m["models.fixed_points_s"] = tr.seconds("models.fixed_points")
    for kind in ("velocity", "classify"):
        m[f"models.{kind}_calls"] = tr.calls(f"models.{kind}")
        m[f"models.{kind}_s"] = tr.seconds(f"models.{kind}")

    stack = "jets.derivative_stack"
    m["jets.stack_scalar_calls"] = tr.calls(stack, variant="scalar")
    m["jets.stack_scalar_s"] = tr.seconds(stack, variant="scalar")
    m["jets.stack_scalar_us_per_call"] = ratio(m["jets.stack_scalar_s"],
                                               m["jets.stack_scalar_calls"], 1e6)
    m["jets.stack_batch_points"] = tr.count(stack, "items", variant="batch")
    m["jets.stack_batch_s"] = tr.seconds(stack, variant="batch")
    m["jets.stack_batch_us_per_point"] = ratio(m["jets.stack_batch_s"],
                                               m["jets.stack_batch_points"], 1e6)

    det = "geometry.det_scaled"
    m["geometry.det_scalar_calls"] = tr.calls(det, variant="scalar")
    m["geometry.det_scalar_s"] = tr.seconds(det, variant="scalar")
    m["geometry.det_batch_matrices"] = tr.count(det, "items", variant="batch")
    m["geometry.det_batch_s"] = tr.seconds(det, variant="batch")
    m["geometry.det_batch_ns_per_matrix"] = ratio(m["geometry.det_batch_s"],
                                                  m["geometry.det_batch_matrices"], 1e9)
    m["geometry.curvatures_calls"] = tr.calls("geometry.curvatures")
    m["geometry.curvatures_s"] = tr.seconds("geometry.curvatures")

    zs = "manifold.zero_set_grid"
    m["manifold.zero_set_s"] = tr.seconds(zs)
    m["manifold.refine_phi_calls"] = tr.calls("manifold.phi", variant="scalar", parent=zs)
    m["manifold.zero_set_points"] = tr.count(zs, "items")
    m["manifold.refine_calls_per_point"] = ratio(m["manifold.refine_phi_calls"],
                                                 m["manifold.zero_set_points"])
    m["manifold.darboux_calls"] = tr.calls("manifold.darboux_residual")
    m["manifold.darboux_s"] = tr.seconds("manifold.darboux_residual")

    integ = "integrate.integrate"
    m["integrate.calls"] = tr.calls(integ)
    m["integrate.s"] = tr.seconds(integ)
    m["integrate.accepted_steps"] = tr.count(integ, "items")
    m["integrate.events"] = tr.count(integ, "events")
    m["integrate.rhs_per_step"] = ratio(tr.calls("models.velocity", parent=integ),
                                        m["integrate.accepted_steps"])

    m["spectral.calls"] = tr.calls("spectral")
    m["spectral.s"] = tr.seconds("spectral")
    m["verify.model_s_max"] = tr.longest("verify.verify_model")

    write = "ioutil.write_table"
    m["ioutil.rows"] = tr.count(write, "items")
    m["ioutil.bytes"] = tr.count(write, "bytes")
    m["ioutil.write_s"] = tr.seconds(write)
    m["ioutil.ns_per_row"] = ratio(m["ioutil.write_s"], m["ioutil.rows"], 1e9)
    m["trace.top_level_s"] = tr.seconds("cli.main")
    return m
