"""Every name that the package or one of its modules lists in `__all__`
must resolve, so that `from instrumental... import *` keeps working when
code moves between modules."""

import importlib
import pkgutil

import pytest

import instrumental

MODULES = ["instrumental"] + [
    f"instrumental.{m.name}" for m in pkgutil.iter_modules(instrumental.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name} exports missing names {missing}"
