"""Reference implementations of the mixture model that the tests check
`noisy_align.mixture` against: one pair's log density, and draws from the
generative model."""

import numpy as np

from noisy_align.mixture import AlignmentModel

LOG_2PI = float(np.log(2.0 * np.pi))


def log_gaussian_iso(y: np.ndarray, mean: np.ndarray, var: float) -> float:
    """Log density of an isotropic Gaussian N(mean, var*I) at y."""
    if var <= 0:
        raise ValueError("variance must be positive")
    y = np.asarray(y, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    d = y.shape[0]
    sq = float(np.sum((y - mean) ** 2))
    return -0.5 * d * (LOG_2PI + float(np.log(var))) - sq / (2.0 * var)


def sample_generative(model: AlignmentModel, X: np.ndarray, seed: int):
    """Sample Y columns from the generative mixture given source columns X.

    Returns:
        (Y, z) where z[t] is True when column t came from the aligned
        component. Deterministic per seed.
    """
    X = np.asarray(X, dtype=np.float64)
    d, n = X.shape
    rng = np.random.default_rng(seed)
    z = rng.random(n) < model.alpha
    Y = np.empty((d, n))
    mapped = model.Q @ X
    noise = rng.standard_normal((d, n))
    sig_a = float(np.sqrt(model.sigma2))
    sig_n = float(np.sqrt(model.sigma_y2))
    Y[:, z] = mapped[:, z] + sig_a * noise[:, z]
    Y[:, ~z] = model.mu_y[:, None] + sig_n * noise[:, ~z]
    return Y, z
