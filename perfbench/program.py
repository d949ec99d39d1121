"""Loading the program under test from the checkout, and running one command.

The package is imported from ``src/`` of the checkout the benchmark runs in,
never from an installed copy, so that a benchmark run measures the tree it
sits in.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import sys
import time

MODULES = ("cli", "io", "inequalities", "polytope", "linprog", "scenario", "quantum")


class ProgramMissing(RuntimeError):
    pass


def load(checkout):
    """Import ``instrumental`` from ``<checkout>/src``; returns its modules by name."""
    src = os.path.join(os.path.abspath(checkout), "src")
    init = os.path.join(src, "instrumental", "__init__.py")
    if not os.path.isfile(init):
        raise ProgramMissing(f"no package at {init}")
    sys.path.insert(0, src)
    pkg = importlib.import_module("instrumental")
    if os.path.abspath(pkg.__file__) != init:
        raise ProgramMissing(f"imported {pkg.__file__}, expected {init}")
    mods = {name: importlib.import_module(f"instrumental.{name}") for name in MODULES}
    mods["instrumental"] = pkg
    return mods


def lazy_caches(mods):
    """The program's memoized functions (``functools`` caches).

    Every command line starts a fresh process and pays for these caches, so
    the benchmark empties them before each operation.
    """
    caches = {}
    for mod in mods.values():
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                caches[id(obj)] = obj
    return list(caches.values())


def run(cli, caches, argv):
    """One command line through ``cli.main``: (exit code, stdout, start, end)
    with ``time.perf_counter`` times around the call."""
    for cache in caches:
        cache.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = cli.main(argv)
        end = time.perf_counter()
    return rc, out.getvalue(), start, end
