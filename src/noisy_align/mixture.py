"""Noise-aware alignment via a two-component Gaussian mixture and EM.

Each lexicon pair (x_t, y_t) is modeled as drawn from an aligned component
N(Qx_t, sigma2*I) with prior alpha, or a noise component N(mu_y, sigma_y2*I)
with prior 1-alpha. EM (hard or soft assignments) jointly fits the
orthogonal map Q, the component parameters, and per-pair responsibilities.
All densities are evaluated in log space; at d=300 the linear-space
Gaussian underflows.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .align import _parse_matrix, _write_matrix, procrustes, weighted_procrustes
from .io import DataError, EmbeddingSet, Lexicon

logger = logging.getLogger(__name__)

VAR_FLOOR = 1e-12
# largest ||Q^T Q - I||_F an AlignmentModel accepts
ORTHO_TOL = 1e-8
LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class AlignmentModel:
    """Fitted mixture: orthogonal map Q plus component parameters.

    Q is a plain float64 d x d array. Building a model is where its
    orthogonality is checked: ||Q^T Q - I||_F must be at most ORTHO_TOL.
    """

    Q: np.ndarray
    sigma2: float
    mu_y: np.ndarray
    sigma_y2: float
    alpha: float

    def __post_init__(self):
        self.Q = np.asarray(self.Q, dtype=np.float64)
        self.mu_y = np.asarray(self.mu_y, dtype=np.float64)
        if not (0 < self.sigma2 < np.inf and 0 < self.sigma_y2 < np.inf):
            raise ValueError("component variances must be positive and finite")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.Q.ndim != 2 or self.Q.shape[0] != self.Q.shape[1]:
            raise ValueError(f"Q must be square, got shape {self.Q.shape}")
        resid = np.linalg.norm(self.Q.T @ self.Q - np.eye(self.dim))
        if not resid <= ORTHO_TOL:  # also rejects NaN
            raise ValueError(f"Q must be orthogonal, but ||Q^T Q - I||_F = {resid:.3g}")
        if self.mu_y.shape != (self.dim,) or not np.isfinite(self.mu_y).all():
            raise ValueError(f"mu_y must be a finite vector of length {self.dim}")

    @property
    def dim(self) -> int:
        return self.Q.shape[0]


@dataclass
class Responsibilities:
    """Per-pair posterior weights w, and the hard labels h and aligned count
    n1 derived from them: a pair is aligned iff its weight exceeds 0.5
    (ties count as noise)."""

    w: np.ndarray
    h: np.ndarray = field(init=False)
    n1: int = field(init=False)

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        if np.any(self.w < 0) or np.any(self.w > 1):
            raise ValueError("responsibilities must lie in [0, 1]")
        self.h = self.w > 0.5
        self.n1 = int(self.h.sum())


@dataclass
class EmConfig:
    """EM driver settings; epsilon=None selects max(1/(2n), 1e-4)."""

    epsilon: float | None = None
    max_iters: int = 100

    def __post_init__(self):
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class EmTrace:
    """Per-iteration (alpha, objective, n1) records."""

    steps: list[tuple[float, float, int]] = field(default_factory=list)
    converged: bool = False
    degenerate_iters: list[int] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.steps)


def _aligned_residuals(Q: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Per-column squared residuals ||Q x_t - y_t||^2."""
    return np.sum((Q @ X - Y) ** 2, axis=0)


def _noise_residuals(mu_y: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Per-column squared residuals ||y_t - mu_y||^2."""
    return np.sum((Y - mu_y[:, None]) ** 2, axis=0)


def _component_logdensities(model: AlignmentModel, r_aligned: np.ndarray,
                            r_noise: np.ndarray):
    """Per-column log densities of both components, vectorized.

    `r_aligned` and `r_noise` are `_aligned_residuals(model.Q, X, Y)` and
    `_noise_residuals(model.mu_y, Y)`.
    """
    d = model.dim
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


def log_likelihood(model: AlignmentModel, X: np.ndarray, Y: np.ndarray) -> float:
    """Marginal log-likelihood sum_t log f(y_t | x_t) of the mixture."""
    la, ln = _component_logdensities(model, _aligned_residuals(model.Q, X, Y),
                                     _noise_residuals(model.mu_y, Y))
    return _e_step(model, la, ln)[1]


def _sums_of_squares(sq: np.ndarray) -> tuple[float, np.ndarray]:
    """The flat sum of `sq`, as in `alignment_error`, and its column sums,
    as in `_aligned_residuals` and `_noise_residuals`.

    Taking `sq` as an argument frees it on return, so `initialize` holds
    one d x n array of squares at a time.
    """
    return float(np.sum(sq)), np.sum(sq, axis=0)


def initialize(X: np.ndarray, Y: np.ndarray):
    """Initial model: Procrustes on the full lexicon, dataset moments, alpha=0.5.

    sigma2 is the mean squared residual per coordinate of the initial Q;
    the noise component takes the mean and (isotropic) variance of Y.
    Variances are floored at VAR_FLOOR so perfect-fit data stays defined.

    Returns:
        (model, r_aligned, r_noise): the model, and its
        `_aligned_residuals` and `_noise_residuals` for the first E-step.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    d, n = X.shape
    if n < 2:
        raise ValueError("need at least 2 pairs to initialize the mixture")
    Q = procrustes(X, Y)
    mu_y = Y.mean(axis=1)
    noise_sum, r_noise = _sums_of_squares((Y - mu_y[:, None]) ** 2)
    sigma_y2 = max(noise_sum / (n * d), VAR_FLOOR)
    aligned_sum, r_aligned = _sums_of_squares((Q @ X - Y) ** 2)
    sigma2 = max(aligned_sum / (n * d), VAR_FLOOR)
    model = AlignmentModel(Q=Q, sigma2=sigma2, mu_y=mu_y, sigma_y2=sigma_y2, alpha=0.5)
    return model, r_aligned, r_noise


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


def _m_step(model: AlignmentModel, X: np.ndarray, Y: np.ndarray, w: np.ndarray,
            r_aligned: np.ndarray, r_noise: np.ndarray):
    """Weighted Procrustes and weighted moments: the EM M-step for weights w.

    `r_aligned` and `r_noise` are the `_aligned_residuals` and
    `_noise_residuals` of `model`.

    Returns (model, degenerate, r, r0): a component whose total weight is
    at most VAR_FLOOR keeps its parameters from `model` and is degenerate;
    r and r0 are `_aligned_residuals` of the returned Q and
    `_noise_residuals` of the returned mu_y (a kept component's are the
    ones given).
    """
    d, n = X.shape
    s1, s0 = float(w.sum()), float((1.0 - w).sum())
    Q, sigma2, r = model.Q, model.sigma2, r_aligned
    mu_y, sigma_y2, r0 = model.mu_y, model.sigma_y2, r_noise
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


def em_fit(X: np.ndarray, Y: np.ndarray, cfg: EmConfig | None = None,
           soft: bool = False):
    """Fit the noise-aware mixture by EM.

    Hard EM (the default) and soft EM (`soft=True`) share one weighted
    M-step (`_m_step`) and differ only in the E-step rounding and the
    objective: hard EM weights pairs by their 0/1 `Responsibilities`
    labels and traces the complete-data objective; soft EM
    weights them by their posteriors and traces the marginal
    log-likelihood.
    Iterates until |alpha_curr - alpha_prev| <= epsilon or max_iters.

    When an iteration leaves a component without weight (n1=0 or n1=n in
    hard EM), that component's parameters are frozen at their previous
    values and the iteration is recorded in trace.degenerate_iters. A fit
    that stops at max_iters without converging logs a warning.

    Returns:
        (AlignmentModel, Responsibilities, EmTrace); the responsibilities
        are the E-step of the returned model.
    """
    cfg = cfg or EmConfig()
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    model, r_aligned, r_noise = initialize(X, Y)
    n = X.shape[1]
    eps = cfg.epsilon if cfg.epsilon is not None else max(1.0 / (2 * n), 1e-4)

    la, ln = _component_logdensities(model, r_aligned, r_noise)
    resp = Responsibilities(_e_step(model, la, ln)[0])
    trace = EmTrace()
    alpha_prev = np.inf
    for it in range(cfg.max_iters):
        if abs(model.alpha - alpha_prev) <= eps:
            trace.converged = True
            break
        alpha_prev = model.alpha

        # hard EM is the same M-step with the 0/1 labels as weights
        weights = resp.w if soft else resp.h.astype(np.float64)
        model, degenerate, r_aligned, r_noise = _m_step(model, X, Y, weights,
                                                        r_aligned, r_noise)
        # one pass over the data scores the new model and runs the next E-step
        la, ln = _component_logdensities(model, r_aligned, r_noise)
        w, loglik = _e_step(model, la, ln)
        objective = loglik if soft else _complete_data_objective(model, la, ln, resp.h)

        if degenerate:
            trace.degenerate_iters.append(it)
        trace.steps.append((model.alpha, objective, resp.n1))
        resp = Responsibilities(w)
    else:
        trace.converged = abs(model.alpha - alpha_prev) <= eps
        if not trace.converged:
            logger.warning("EM stopped at max_iters=%d without converging: "
                           "|alpha change| %.3g > epsilon %.3g",
                           cfg.max_iters, abs(model.alpha - alpha_prev), eps)

    return model, resp, trace


def _write_parameters(fh, model: AlignmentModel) -> None:
    """The lines of `save_model`'s file below its Q block."""
    fh.write(f"sigma2 {model.sigma2:.17g}\n")
    fh.write("mu_y " + " ".join(f"{v:.17g}" for v in model.mu_y) + "\n")
    fh.write(f"sigma_y2 {model.sigma_y2:.17g}\n")
    fh.write(f"alpha {model.alpha:.17g}\n")


def save_model(model: AlignmentModel, path) -> None:
    """Persist a fitted model as text (Q block, then scalar/vector lines)."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_matrix(model.Q, fh)
        _write_parameters(fh, model)


def _save_model_and_matrix(model: AlignmentModel, model_path, matrix_path) -> None:
    """`save_model(model, model_path)` and `save_matrix(model.Q, matrix_path)`
    with Q formatted once: the model file begins with the matrix file's bytes."""
    with open(model_path, "w", encoding="utf-8") as fh, \
            open(matrix_path, "w", encoding="utf-8") as matrix_fh:
        _write_matrix(model.Q, fh, matrix_fh)
        _write_parameters(fh, model)


def load_model(path) -> AlignmentModel:
    """Load a model saved by `save_model`; DataError if the file is malformed."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        lines = fh.read().splitlines()
    Q = _parse_matrix(lines, path)
    try:
        fields = {parts[0]: np.array(parts[1:], dtype=np.float64)
                  for parts in map(str.split, lines[len(Q) + 1:]) if parts}
        return AlignmentModel(Q=Q, sigma2=float(fields["sigma2"][0]), mu_y=fields["mu_y"],
                              sigma_y2=float(fields["sigma_y2"][0]),
                              alpha=float(fields["alpha"][0]))
    except (IndexError, KeyError, ValueError) as exc:
        raise DataError(f"model file {path} is malformed: {exc}") from exc


def write_responsibilities_tsv(resp: Responsibilities, lex: Lexicon, path,
                               src: EmbeddingSet, tgt: EmbeddingSet) -> None:
    """Export per-pair decisions as TSV: index, tokens, weight, Aligned/Noise.

    Pair t of `lex` is named by its tokens in the two vocabularies,
    `src.tokens[s]` and `tgt.tokens[g]`.
    """
    if len(lex) != resp.w.size:
        raise ValueError(f"{resp.w.size} responsibilities for {len(lex)} lexicon pairs")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pair_index\tsrc_token\ttgt_token\tw\tlabel\n")
        for t, ((s, g), w, aligned) in enumerate(zip(lex.pairs, resp.w.tolist(),
                                                     resp.h.tolist())):
            label = "Aligned" if aligned else "Noise"
            fh.write(f"{t}\t{src.tokens[s]}\t{tgt.tokens[g]}\t{w:.6g}\t{label}\n")
