"""The benchmark's tracer wraps functions by name; each name must still exist."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module,name", [(m, n) for m, names in load_tracer().WRAPPED.items()
                                         for n in names])
def test_wrapped_name_is_a_function_of_the_package(module, name):
    target = importlib.import_module(f"noisy_align.{module}")
    assert callable(getattr(target, name, None)), f"noisy_align.{module}.{name}"


@pytest.mark.parametrize("name,position", sorted(load_tracer().WRITERS.items()))
def test_writer_position_names_its_path_parameter(name, position):
    # the tracer sizes the file at args[position] when `path` is passed by position
    module, fname = name.split(".")
    writer = getattr(importlib.import_module(f"noisy_align.{module}"), fname)
    assert list(inspect.signature(writer).parameters)[position] == "path", name
