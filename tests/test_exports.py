"""Every name that the package or one of its modules lists in `__all__`
must resolve, so that `from instrumental... import *` keeps working when
code moves between modules; and the package's own code holds no `assert`."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


SRC = Path(__file__).resolve().parent.parent / "src" / "instrumental"

# Public names that nothing in src/ calls, each kept for a reason outside it.
UNCALLED = {
    "__version__": "the package version, read by packaging tools",
    "maximize_linear": "wrapped by perfbench/tracing.py until its metrics are read in-program",
    "vertex_enumeration": "wrapped by perfbench/tracing.py until its metrics are read in-program",
    "random_mixture": "wrapped by perfbench/tracing.py until its metrics are read in-program",
    "identity_check": "wrapped by perfbench/tracing.py until its metrics are read in-program",
    "save_correlation": "README: writes the table format `membership --table` reads",
    "read_ieq": "README: reads the PORTA files `facets --format porta` writes",
    "hpolytope_from_json": "README: reads the facet lists `facets --format json` writes",
    "f_instrumental": "README: the constructor for an explicit wiring table",
    "error": "argparse calls _Parser.error on a usage error",
}


def _public_definitions(tree):
    """(name, definition node, node types a use may take) for each name in
    the module's `__all__` and each public method or property of its
    classes.  A method is only reachable as an attribute, so a local
    variable of the same name is not a use of it."""
    top = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            top[node.name] = node
        elif isinstance(node, ast.Assign):
            top.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
    listed = top.get("__all__")
    for elt in listed.value.elts if listed else ():
        if isinstance(elt, ast.Constant) and elt.value in top:
            yield elt.value, top[elt.value], (ast.Name, ast.Attribute)
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for item in cls.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, item, (ast.Attribute,)


def _uses(tree):
    """(name, node) for each name read as a bare name or an attribute;
    docstrings, imports and assignment targets are not reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node


def test_public_names_have_callers_in_src():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    uses = [use for tree in trees for use in _uses(tree)]
    uncalled = set()
    for tree in trees:
        for name, definition, kinds in _public_definitions(tree):
            own = set(map(id, ast.walk(definition)))
            if not any(
                n == name and isinstance(node, kinds) and id(node) not in own
                for n, node in uses
            ):
                uncalled.add(name)
    unexplained = sorted(uncalled - set(UNCALLED))
    assert not unexplained, f"public names with no caller in src/: {unexplained}"
    stale = sorted(set(UNCALLED) - uncalled)
    assert not stale, f"allow-listed names that src/ now calls: {stale}"


def test_no_assert_statements_in_src():
    # `python -O` strips asserts, so a soundness check written as one would
    # vanish; checks raise errors instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/: {found}"
