"""The benchmark's tracer wraps package functions by name; every name it
lists must still exist, or ``perfbench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPPED = load_tracing().WRAPPED


@pytest.mark.parametrize("layer", sorted(WRAPPED))
def test_wrapped_names_resolve(layer):
    module = importlib.import_module(f"instrumental.{layer}")
    missing = [
        name for name in WRAPPED[layer] if not callable(getattr(module, name, None))
    ]
    assert not missing, f"instrumental.{layer} lacks {missing}"
