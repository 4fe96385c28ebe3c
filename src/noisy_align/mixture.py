"""Noise-aware alignment via a two-component Gaussian mixture and EM.

Each lexicon pair (x_t, y_t) is modeled as drawn from an aligned component
N(Qx_t, sigma2*I) with prior alpha, or a noise component N(mu_y, sigma_y2*I)
with prior 1-alpha. EM (hard or soft assignments) jointly fits the
orthogonal map Q, the component parameters, and per-pair responsibilities.
All densities are evaluated in log space; at d=300 the linear-space
Gaussian underflows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .align import (
    TranslationMatrix,
    _parse_matrix,
    _write_matrix,
    procrustes,
    weighted_procrustes,
)
from .io import DataError, Lexicon

VAR_FLOOR = 1e-12
LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class AlignmentModel:
    """Fitted mixture: orthogonal map Q plus component parameters."""

    Q: TranslationMatrix
    sigma2: float
    mu_y: np.ndarray
    sigma_y2: float
    alpha: float

    def __post_init__(self):
        self.mu_y = np.asarray(self.mu_y, dtype=np.float64)
        if not (0 < self.sigma2 < np.inf and 0 < self.sigma_y2 < np.inf):
            raise ValueError("component variances must be positive and finite")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not self.Q.orthogonal:
            raise ValueError("Q must be orthogonal")
        if self.mu_y.shape != (self.Q.dim,) or not np.isfinite(self.mu_y).all():
            raise ValueError(f"mu_y must be a finite vector of length {self.Q.dim}")

    @property
    def dim(self) -> int:
        return self.Q.dim


@dataclass
class Responsibilities:
    """Per-pair posterior weights, hard labels and aligned count."""

    w: np.ndarray
    h: np.ndarray
    n1: int

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.h = np.asarray(self.h, dtype=bool)
        if self.w.shape != self.h.shape:
            raise ValueError("w and h must have the same length")
        if np.any(self.w < 0) or np.any(self.w > 1):
            raise ValueError("responsibilities must lie in [0, 1]")
        if self.n1 != int(self.h.sum()):
            raise ValueError("n1 must equal the number of true hard labels")


@dataclass
class EmConfig:
    """EM driver settings; epsilon=None selects max(1/(2n), 1e-4)."""

    epsilon: float | None = None
    max_iters: int = 100
    mode: str = "hard"

    def __post_init__(self):
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.mode not in ("hard", "soft"):
            raise ValueError(f"mode must be 'hard' or 'soft', got {self.mode!r}")


@dataclass
class EmTrace:
    """Per-iteration (alpha, objective, n1) records."""

    steps: list[tuple[float, float, int]] = field(default_factory=list)
    converged: bool = False
    degenerate_iters: list[int] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.steps)


def log_gaussian_iso(y: np.ndarray, mean: np.ndarray, var: float) -> float:
    """Log density of an isotropic Gaussian N(mean, var*I) at y."""
    if var <= 0:
        raise ValueError("variance must be positive")
    y = np.asarray(y, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    d = y.shape[0]
    sq = float(np.sum((y - mean) ** 2))
    return -0.5 * d * (LOG_2PI + float(np.log(var))) - sq / (2.0 * var)


def _aligned_residuals(Q: TranslationMatrix, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Per-column squared residuals ||Q x_t - y_t||^2."""
    return np.sum((Q.Q @ X - Y) ** 2, axis=0)


def _noise_residuals(mu_y: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Per-column squared residuals ||y_t - mu_y||^2."""
    return np.sum((Y - mu_y[:, None]) ** 2, axis=0)


def _component_logdensities(model: AlignmentModel, X: np.ndarray, Y: np.ndarray,
                            r_aligned: np.ndarray | None = None,
                            r_noise: np.ndarray | None = None):
    """Per-column log densities of both components, vectorized.

    `r_aligned` and `r_noise`, when given, are `_aligned_residuals(model.Q,
    X, Y)` and `_noise_residuals(model.mu_y, Y)`.
    """
    d = X.shape[0]
    if r_aligned is None:
        r_aligned = _aligned_residuals(model.Q, X, Y)
    if r_noise is None:
        r_noise = _noise_residuals(model.mu_y, Y)
    la = -0.5 * d * (LOG_2PI + np.log(model.sigma2)) - r_aligned / (2.0 * model.sigma2)
    ln = -0.5 * d * (LOG_2PI + np.log(model.sigma_y2)) - r_noise / (2.0 * model.sigma_y2)
    return la, ln


def _e_step(model: AlignmentModel, la: np.ndarray, ln: np.ndarray):
    """Posterior aligned probabilities and the marginal log-likelihood.

    `la` and `ln` are the per-column component log densities of `model`.
    """
    if model.alpha == 0.0:
        return np.zeros(la.size), float(np.sum(ln))
    if model.alpha == 1.0:
        return np.ones(la.size), float(np.sum(la))
    la = la + np.log(model.alpha)
    ln = ln + np.log1p(-model.alpha)
    total = np.logaddexp(la, ln)
    return np.exp(la - total), float(np.sum(total))


def _posterior_weights(model: AlignmentModel, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Posterior aligned probabilities w_t for every column pair."""
    return _e_step(model, *_component_logdensities(model, X, Y))[0]


def posterior(model: AlignmentModel, x: np.ndarray, y: np.ndarray) -> float:
    """Posterior probability that the pair (x, y) is aligned."""
    x = np.asarray(x, dtype=np.float64).reshape(-1, 1)
    y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    return float(_posterior_weights(model, x, y)[0])


def log_likelihood(model: AlignmentModel, X: np.ndarray, Y: np.ndarray) -> float:
    """Marginal log-likelihood sum_t log f(y_t | x_t) of the mixture."""
    return _e_step(model, *_component_logdensities(model, X, Y))[1]


def _initialize(X: np.ndarray, Y: np.ndarray):
    """`initialize`, plus the `_aligned_residuals` and `_noise_residuals` of
    its model for the first E-step."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    d, n = X.shape
    if n < 2:
        raise ValueError("need at least 2 pairs to initialize the mixture")
    Q = procrustes(X, Y)
    mu_y = Y.mean(axis=1)
    noise_sum, r_noise = _sums_of_squares((Y - mu_y[:, None]) ** 2)
    sigma_y2 = max(noise_sum / (n * d), VAR_FLOOR)
    aligned_sum, r_aligned = _sums_of_squares((Q.Q @ X - Y) ** 2)
    sigma2 = max(aligned_sum / (n * d), VAR_FLOOR)
    model = AlignmentModel(Q=Q, sigma2=sigma2, mu_y=mu_y, sigma_y2=sigma_y2, alpha=0.5)
    return model, r_aligned, r_noise


def _sums_of_squares(sq: np.ndarray) -> tuple[float, np.ndarray]:
    """The flat sum of `sq`, as in `alignment_error`, and its column sums,
    as in `_aligned_residuals` and `_noise_residuals`.

    Taking `sq` as an argument frees it on return, so `_initialize` holds
    one d x n array of squares at a time.
    """
    return float(np.sum(sq)), np.sum(sq, axis=0)


def initialize(X: np.ndarray, Y: np.ndarray) -> AlignmentModel:
    """Initial model: Procrustes on the full lexicon, dataset moments, alpha=0.5.

    sigma2 is the mean squared residual per coordinate of the initial Q;
    the noise component takes the mean and (isotropic) variance of Y.
    Variances are floored at VAR_FLOOR so perfect-fit data stays defined.
    """
    return _initialize(X, Y)[0]


def _complete_data_objective(model: AlignmentModel, la: np.ndarray, ln: np.ndarray,
                             h: np.ndarray) -> float:
    """Joint log-likelihood of data and hard assignments h.

    `la` and `ln` are the per-column component log densities of `model`.
    """
    n1 = int(h.sum())
    n0 = h.size - n1
    obj = float(la[h].sum() + ln[~h].sum())
    if n1 and model.alpha > 0:
        obj += n1 * float(np.log(model.alpha))
    if n0 and model.alpha < 1:
        obj += n0 * float(np.log1p(-model.alpha))
    return obj


def _m_step(model: AlignmentModel, X: np.ndarray, Y: np.ndarray, w: np.ndarray):
    """Weighted Procrustes and weighted moments: the EM M-step for weights w.

    Returns (model, degenerate, r, r0): a component whose total weight is
    at most VAR_FLOOR keeps its parameters from `model` and is degenerate;
    r and r0 are `_aligned_residuals` of the new Q and `_noise_residuals`
    of the new mu_y, each None when its component was kept.
    """
    d, n = X.shape
    s1, s0 = float(w.sum()), float((1.0 - w).sum())
    Q, sigma2, r = model.Q, model.sigma2, None
    mu_y, sigma_y2, r0 = model.mu_y, model.sigma_y2, None
    if s1 > VAR_FLOOR:
        Q = weighted_procrustes(X, Y, w)
        r = _aligned_residuals(Q, X, Y)
        sigma2 = max(float(np.dot(w, r)) / (d * s1), VAR_FLOOR)
    if s0 > VAR_FLOOR:
        mu_y = (Y @ (1.0 - w)) / s0
        r0 = _noise_residuals(mu_y, Y)
        sigma_y2 = max(float(np.dot(1.0 - w, r0)) / (d * s0), VAR_FLOOR)
    fitted = AlignmentModel(Q=Q, sigma2=sigma2, mu_y=mu_y,
                            sigma_y2=sigma_y2, alpha=s1 / n)
    return fitted, s1 <= VAR_FLOOR or s0 <= VAR_FLOOR, r, r0


def em_fit(X: np.ndarray, Y: np.ndarray, cfg: EmConfig | None = None):
    """Fit the noise-aware mixture by EM.

    Both modes share one weighted M-step (`_m_step`) and differ only in
    the E-step rounding and the objective: hard mode thresholds posteriors
    at 0.5 (ties count as noise), weights pairs 0/1 and traces the
    complete-data objective; soft mode weights them by their posteriors
    and traces the marginal log-likelihood.
    Iterates until |alpha_curr - alpha_prev| <= epsilon or max_iters.

    When an iteration leaves a component without weight (n1=0 or n1=n in
    hard mode), that component's parameters are frozen at their previous
    values and the iteration is recorded in trace.degenerate_iters.

    Returns:
        (AlignmentModel, Responsibilities, EmTrace); the responsibilities
        are the E-step of the returned model.
    """
    cfg = cfg or EmConfig()
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    n = X.shape[1]
    if n < 2:
        raise ValueError("need at least 2 pairs")
    eps = cfg.epsilon if cfg.epsilon is not None else max(1.0 / (2 * n), 1e-4)

    model, r_aligned, r_noise = _initialize(X, Y)
    w = _e_step(model, *_component_logdensities(model, X, Y, r_aligned, r_noise))[0]
    trace = EmTrace()
    alpha_prev = np.inf
    for it in range(cfg.max_iters):
        if abs(model.alpha - alpha_prev) <= eps:
            trace.converged = True
            break
        alpha_prev = model.alpha

        h = w > 0.5
        # hard EM is the same M-step with the 0/1 labels as weights
        weights = h.astype(np.float64) if cfg.mode == "hard" else w
        model, degenerate, r_aligned, r_noise = _m_step(model, X, Y, weights)
        # one pass over the data scores the new model and runs the next E-step
        la, ln = _component_logdensities(model, X, Y, r_aligned, r_noise)
        w, loglik = _e_step(model, la, ln)
        objective = (_complete_data_objective(model, la, ln, h) if cfg.mode == "hard"
                     else loglik)

        if degenerate:
            trace.degenerate_iters.append(it)
        trace.steps.append((model.alpha, objective, int(h.sum())))
    else:
        trace.converged = abs(model.alpha - alpha_prev) <= eps

    h = w > 0.5
    return model, Responsibilities(w=w, h=h, n1=int(h.sum())), trace


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
    mapped = model.Q.Q @ X
    noise = rng.standard_normal((d, n))
    sig_a = float(np.sqrt(model.sigma2))
    sig_n = float(np.sqrt(model.sigma_y2))
    Y[:, z] = mapped[:, z] + sig_a * noise[:, z]
    Y[:, ~z] = model.mu_y[:, None] + sig_n * noise[:, ~z]
    return Y, z


def save_model(model: AlignmentModel, path) -> None:
    """Persist a fitted model as text (Q block, then scalar/vector lines)."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_matrix(fh, model.Q.Q)
        fh.write(f"sigma2 {model.sigma2:.17g}\n")
        fh.write("mu_y " + " ".join(f"{v:.17g}" for v in model.mu_y) + "\n")
        fh.write(f"sigma_y2 {model.sigma_y2:.17g}\n")
        fh.write(f"alpha {model.alpha:.17g}\n")


def load_model(path) -> AlignmentModel:
    """Load a model saved by `save_model`; DataError if the file is malformed."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        lines = fh.read().splitlines()
    Q = _parse_matrix(lines, path)
    try:
        fields = {parts[0]: np.array(parts[1:], dtype=np.float64)
                  for parts in map(str.split, lines[Q.dim + 1:]) if parts}
        return AlignmentModel(Q=Q, sigma2=float(fields["sigma2"][0]), mu_y=fields["mu_y"],
                              sigma_y2=float(fields["sigma_y2"][0]),
                              alpha=float(fields["alpha"][0]))
    except (IndexError, KeyError, ValueError) as exc:
        raise DataError(f"model file {path} is malformed: {exc}") from exc


def write_responsibilities_tsv(resp: Responsibilities, lex: Lexicon | None, path) -> None:
    """Export per-pair decisions as TSV: index, tokens, weight, Aligned/Noise."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pair_index\tsrc_token\ttgt_token\tw\tlabel\n")
        for t in range(resp.w.size):
            if lex is not None and lex.src_tokens and lex.tgt_tokens:
                s, g = lex.src_tokens[t], lex.tgt_tokens[t]
            elif lex is not None:
                s, g = str(lex.pairs[t][0]), str(lex.pairs[t][1])
            else:
                s, g = str(t), str(t)
            label = "Aligned" if resp.h[t] else "Noise"
            fh.write(f"{t}\t{s}\t{g}\t{resp.w[t]:.6g}\t{label}\n")
