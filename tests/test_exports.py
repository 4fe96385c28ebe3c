"""The package's export list names what callers use, and each name exists."""

import types

import pytest

import noisy_align


@pytest.mark.parametrize("name", noisy_align.__all__)
def test_exported_name_is_an_attribute_of_the_package(name):
    assert hasattr(noisy_align, name), name


@pytest.mark.parametrize("name", ["log_gaussian_iso", "posterior", "sample_generative"])
def test_removed_mixture_name_is_not_exported(name):
    assert name not in noisy_align.__all__
    assert not hasattr(noisy_align, name)
    assert not hasattr(noisy_align.mixture, name)


def test_removed_evaluation_name_is_not_exported():
    # `report.json` is written from a plain dict
    assert "EvalReport" not in noisy_align.__all__
    assert not hasattr(noisy_align, "EvalReport")
    assert not hasattr(noisy_align.evaluation, "EvalReport")


def test_every_public_attribute_is_exported_once():
    # `__all__` keeps the names defined in the package's own modules, so a
    # public name of another kind (a module constant, say) would be left out
    public = {name for name, value in vars(noisy_align).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(noisy_align.__all__)
    assert len(noisy_align.__all__) == len(set(noisy_align.__all__))
