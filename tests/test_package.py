"""The package's public names, and the names the benchmark reads from them."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import flowcurv
from flowcurv import models

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_exported_name_resolves():
    # a retired export cannot linger in __all__
    modules = [flowcurv] + [importlib.import_module(f"flowcurv.{info.name}")
                            for info in pkgutil.iter_modules(flowcurv.__path__)]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert len(modules) > 1 and not missing


def test_names_the_benchmark_reads_resolve():
    # perfbench wraps these functions and methods, and calls these entry
    # points: a name gone from the package would crash the benchmark's own
    # run while every other test passes
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.TRACED
               if not callable(getattr(importlib.import_module(module), attr, None))]
    missing += [f"ModelDef.{attr}" for attr, _ in tracing.METHODS
                if not callable(models.ModelDef.__dict__.get(attr))]
    assert not missing
    from flowcurv import darboux_residual, get_model  # noqa: F401
    from flowcurv.cli import main  # noqa: F401
    # the zero-set check reads each pwl argument at a point given as a list
    model = get_model("chua3-pwl")
    assert float(model.pwl_args[0].eval([1.5, 0.0, -0.25])) == 1.5
