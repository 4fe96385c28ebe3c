"""Synthetic noisy alignment problems with a known planted solution."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .align import random_orthogonal


@dataclass
class SyntheticProblem:
    """A planted instance: Y = Q_gold X on clean columns, noise elsewhere."""

    X: np.ndarray
    Y: np.ndarray
    Q_gold: np.ndarray
    clean_mask: np.ndarray


def make_noisy_problem(n: int, d: int, p: float, seed: int) -> SyntheticProblem:
    """Build a planted problem with a fraction p of noisy pairs.

    X columns are i.i.d. standard normal; clean columns satisfy
    y = Q_gold x exactly; for the round(p*n) noisy columns both x and y
    are independently resampled standard normal. Deterministic per seed.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("noise fraction p must lie in [0, 1)")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    Q_gold = random_orthogonal(d, seed)
    X = rng.standard_normal((d, n))
    Y = Q_gold @ X
    n_noisy = int(round(p * n))
    clean_mask = np.ones(n, dtype=bool)
    if n_noisy:
        noisy = rng.choice(n, size=n_noisy, replace=False)
        clean_mask[noisy] = False
        X[:, noisy] = rng.standard_normal((d, n_noisy))
        Y[:, noisy] = rng.standard_normal((d, n_noisy))
    return SyntheticProblem(X=X, Y=Y, Q_gold=Q_gold, clean_mask=clean_mask)
