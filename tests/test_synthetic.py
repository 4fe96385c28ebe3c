import dataclasses

import numpy as np
import pytest

from noisy_align.synthetic import SyntheticProblem, make_noisy_problem


def test_problem_holds_only_arrays():
    assert [f.name for f in dataclasses.fields(SyntheticProblem)] == \
        ["X", "Y", "Q_gold", "clean_mask"]


def test_noise_free_is_exact():
    prob = make_noisy_problem(n=100, d=5, p=0.0, seed=0)
    assert prob.clean_mask.all()
    assert np.array_equal(prob.Y, prob.Q_gold @ prob.X)


def test_single_noisy_pair_at_ten_percent():
    prob = make_noisy_problem(n=10, d=2, p=0.1, seed=1)
    assert (~prob.clean_mask).sum() == 1


@pytest.mark.parametrize("n,p", [(100, 0.25), (7, 0.4), (1000, 0.5)])
def test_exact_noisy_count(n, p):
    prob = make_noisy_problem(n=n, d=3, p=p, seed=2)
    assert (~prob.clean_mask).sum() == int(round(p * n))
    clean = prob.clean_mask
    assert np.allclose(prob.Y[:, clean], prob.Q_gold @ prob.X[:, clean])


def test_deterministic_per_seed():
    a = make_noisy_problem(n=50, d=4, p=0.3, seed=7)
    b = make_noisy_problem(n=50, d=4, p=0.3, seed=7)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.Y, b.Y)
    assert np.array_equal(a.clean_mask, b.clean_mask)


def test_different_seeds_differ():
    a = make_noisy_problem(n=50, d=4, p=0.3, seed=7)
    b = make_noisy_problem(n=50, d=4, p=0.3, seed=8)
    assert not np.array_equal(a.X, b.X)


def test_invalid_noise_fraction():
    with pytest.raises(ValueError):
        make_noisy_problem(n=10, d=2, p=1.0, seed=0)
    with pytest.raises(ValueError):
        make_noisy_problem(n=10, d=2, p=-0.1, seed=0)


@pytest.mark.parametrize("n,p,message", [
    (0, 0.0, "n must be >= 1"),
    (-3, 0.0, "n must be >= 1"),
    (10, np.nan, "noise fraction p must lie in [0, 1)"),
])
def test_rejected_setting_is_a_value_error(n, p, message):
    with pytest.raises(ValueError) as exc:
        make_noisy_problem(n=n, d=2, p=p, seed=0)
    assert str(exc.value) == message
