"""The package's export list names what callers use, and each name exists."""

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
