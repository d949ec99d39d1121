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


def test_package_names_come_from_module_lists():
    published = set()
    for name in MODULES[1:]:
        published.update(getattr(importlib.import_module(name), "__all__", ()))
    stray = [n for n in instrumental.__all__ if n != "__version__" and n not in published]
    assert not stray, f"instrumental exports {stray} that no module lists in __all__"
