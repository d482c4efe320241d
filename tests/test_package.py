"""The package's public names."""

import importlib
import pkgutil

import flowcurv


def test_every_exported_name_resolves():
    # a retired export cannot linger in __all__
    modules = [flowcurv] + [importlib.import_module(f"flowcurv.{info.name}")
                            for info in pkgutil.iter_modules(flowcurv.__path__)]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert len(modules) > 1 and not missing
