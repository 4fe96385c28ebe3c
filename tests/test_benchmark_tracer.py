"""The benchmark's tracer wraps functions by name; each name must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


@pytest.mark.parametrize("module,name", [(m, n) for m, names in load_wrapped().items()
                                         for n in names])
def test_wrapped_name_is_a_function_of_the_package(module, name):
    target = importlib.import_module(f"noisy_align.{module}")
    assert callable(getattr(target, name, None)), f"noisy_align.{module}.{name}"
