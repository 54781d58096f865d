import importlib
import pkgutil

import pytest

import fistakit

# The package and every module in it, found on disk so that a new module is covered too.
MODULES = ["fistakit", *(f"fistakit.{m.name}" for m in pkgutil.iter_modules(fistakit.__path__))]


def test_every_module_is_found():
    assert {"fistakit.model", "fistakit.fista", "fistakit.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # A name left in __all__ after its definition is gone breaks `import *`.
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
