"""Noise-aware alignment via a two-component Gaussian mixture and EM.

Each lexicon pair (x_t, y_t) is modeled as drawn from an aligned component
N(Qx_t, sigma2*I) with prior alpha, or a noise component N(mu_y, sigma_y2*I)
with prior 1-alpha. EM (hard or soft assignments) jointly fits the
orthogonal map Q, the component parameters, and per-pair responsibilities.
All densities are evaluated in log space; at d=300 the linear-space
Gaussian underflows. The two components differ only in their mean, so one
function, `_residuals`, gives each pair's squared residual under either,
and `_column_residuals` applies it one block of columns at a time, so that
the fit holds no d x n temporary. One function, `_e_step`, turns those
residuals into each pair's joint log density under both components; the
posteriors, soft EM's marginal log-likelihood and hard EM's complete-data
log-likelihood all come from these two numbers. `save_model` is the one
model writer, formatting Q once also for an optional matrix file; the
responsibilities writer takes each pair's tokens, not the sets.
"""

from __future__ import annotations

import logging
from contextlib import ExitStack
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .align import (_MODEL_KEYS, _check_product, _misfit, _parse_map, _square_sums,
                    _weighted_map, _write_matrix, procrustes)
from .io import DataError, _column_blocks

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
        if not np.all((self.w >= 0) & (self.w <= 1)):  # also rejects NaN
            raise ValueError("responsibilities must lie in [0, 1]")
        self.h = self.w > 0.5
        self.n1 = int(self.h.sum())


@dataclass
class EmConfig:
    """EM driver settings; epsilon=None selects max(1/(2n), 1e-4)."""

    epsilon: float | None = None
    max_iters: int = 100

    def __post_init__(self):
        if self.epsilon is not None and not 0 < self.epsilon < np.inf:  # also NaN
            raise ValueError("epsilon must be positive and finite")
        if not (isinstance(self.max_iters, Integral) and self.max_iters >= 1):
            raise ValueError("max_iters must be an integer >= 1")


@dataclass
class EmTrace:
    """Per-iteration (alpha, objective, n1) records."""

    steps: list[tuple[float, float, int]] = field(default_factory=list)
    converged: bool = False
    degenerate_iters: list[int] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.steps)


def _residuals(diff: np.ndarray, what: str) -> np.ndarray:
    """Per-column squared residuals `what` of the d x b difference `diff`,
    Q @ X - Y for the aligned component or Y - mu_y[:, None] for the noise
    one; DataError on overflow. `diff` is squared in place, so that no
    second array is held; callers pass a temporary and ignore overflow and
    invalid warnings."""
    r = _square_sums(diff)
    _check_product(r, what)
    return r


def _column_residuals(X: np.ndarray, Y: np.ndarray, Q=None, mu_y=None) -> np.ndarray:
    """The `_residuals` of Q @ X - Y, or of Y - mu_y[:, None] when `mu_y` is
    given, one block of columns at a time (`io._column_blocks`): no d x n
    difference is held."""
    what = "||Qx - y||^2" if mu_y is None else "||y - mu_y||^2"
    r = np.empty(Y.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):  # `_residuals` reports it
        for s in _column_blocks(Y.shape[1]):
            r[s] = _residuals(_misfit(Q, X, Y, s) if mu_y is None
                              else Y[:, s] - mu_y[:, None], what)
    return r


def _variance(total: float, count: float, what: str) -> float:
    """`total`, a sum of squared residuals `what`, over `count`, floored at
    VAR_FLOOR so a perfect fit stays defined; DataError if the sum overflowed."""
    _check_product(total, what)
    return max(float(total) / count, VAR_FLOOR)


def _e_step(model: AlignmentModel, r_aligned: np.ndarray, r_noise: np.ndarray):
    """One E-step of `model`, vectorized: (w, loglik, ja, jn) are the
    posterior aligned probabilities, the marginal log-likelihood and the
    per-column joint log densities log alpha + log f1(y | x) and
    log(1 - alpha) + log f0(y). At alpha = 0 or 1 one joint is -inf, so
    w is exactly 0 or 1 and loglik sums the other component's densities.

    `r_aligned` and `r_noise` are the `_residuals` of `model.Q @ X - Y`
    and of `Y - model.mu_y[:, None]`.
    """
    d = model.dim
    la = -0.5 * d * (LOG_2PI + np.log(model.sigma2)) - r_aligned / (2.0 * model.sigma2)
    ln = -0.5 * d * (LOG_2PI + np.log(model.sigma_y2)) - r_noise / (2.0 * model.sigma_y2)
    with np.errstate(divide="ignore"):  # log 0 = -inf at alpha = 0 or 1
        ja = la + np.log(model.alpha)
        jn = ln + np.log1p(-model.alpha)
    total = np.logaddexp(ja, jn)
    return np.exp(ja - total), float(np.sum(total)), ja, jn


def log_likelihood(model: AlignmentModel, X: np.ndarray, Y: np.ndarray) -> float:
    """Marginal log-likelihood sum_t log f(y_t | x_t) of the mixture."""
    return _e_step(model, _column_residuals(X, Y, model.Q),
                   _column_residuals(X, Y, mu_y=model.mu_y))[1]


def initialize(X: np.ndarray, Y: np.ndarray):
    """Initial model: Procrustes on the full lexicon, dataset moments, alpha=0.5.

    sigma2 is the mean squared residual per coordinate of the initial Q,
    the sum of its column residuals as `alignment_error` takes it; the
    noise component takes the mean and (isotropic) variance of Y. Variances
    are floored at VAR_FLOOR so perfect-fit data stays defined. The
    finiteness of X and Y is checked here, once for the whole fit.

    Returns:
        (model, r_aligned, r_noise): the model, and its aligned and noise
        residuals for the first E-step, bit for bit its `_residuals`.

    Raises:
        DataError: the vectors are so large that ||y - mu_y||^2 or
            ||Qx - y||^2 overflows.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    d, n = X.shape
    if n < 2:
        raise ValueError("need at least 2 pairs to initialize the mixture")
    Q = procrustes(X, Y)
    # `_column_residuals` or `_variance` reports an overflow
    with np.errstate(over="ignore", invalid="ignore"):
        mu_y = Y.mean(axis=1)
        r_noise = _column_residuals(X, Y, mu_y=mu_y)
        sigma_y2 = _variance(np.sum(r_noise), n * d, "||y - mu_y||^2")
        r_aligned = _column_residuals(X, Y, Q)
        sigma2 = _variance(np.sum(r_aligned), n * d, "||Qx - y||^2")
    model = AlignmentModel(Q=Q, sigma2=sigma2, mu_y=mu_y, sigma_y2=sigma_y2, alpha=0.5)
    return model, r_aligned, r_noise


def _m_step(model: AlignmentModel, X: np.ndarray, Y: np.ndarray, w: np.ndarray,
            r_aligned: np.ndarray, r_noise: np.ndarray):
    """Weighted Procrustes and weighted moments: the EM M-step for weights w.

    `r_aligned` and `r_noise` are the aligned and noise `_residuals` of
    `model`.

    Returns (model, degenerate, r, r0): a component whose total weight is
    at most VAR_FLOOR keeps its parameters from `model` and is degenerate;
    r and r0 are the `_residuals` of the returned Q and mu_y (a kept
    component's are the ones given). An overflowing residual or weighted
    sum is a DataError.
    """
    d, n = X.shape
    s1, s0 = float(w.sum()), float((1.0 - w).sum())
    Q, sigma2, r = model.Q, model.sigma2, r_aligned
    mu_y, sigma_y2, r0 = model.mu_y, model.sigma_y2, r_noise
    # an overflow is reported by `_column_residuals` or `_variance`
    with np.errstate(over="ignore", invalid="ignore"):
        if s1 > VAR_FLOOR:
            Q = _weighted_map(X, Y, w)  # X and Y were checked by `initialize`
            r = _column_residuals(X, Y, Q)
            sigma2 = _variance(np.dot(w, r), d * s1, "||Qx - y||^2")
        if s0 > VAR_FLOOR:
            mu_y = (Y @ (1.0 - w)) / s0
            r0 = _column_residuals(X, Y, mu_y=mu_y)
            sigma_y2 = _variance(np.dot(1.0 - w, r0), d * s0, "||y - mu_y||^2")
    fitted = AlignmentModel(Q=Q, sigma2=sigma2, mu_y=mu_y,
                            sigma_y2=sigma_y2, alpha=s1 / n)
    return fitted, s1 <= VAR_FLOOR or s0 <= VAR_FLOOR, r, r0


def em_fit(X: np.ndarray, Y: np.ndarray, cfg: EmConfig | None = None,
           soft: bool = False):
    """Fit the noise-aware mixture by EM.

    Hard EM (the default) and soft EM (`soft=True`) share one weighted
    M-step (`_m_step`) and differ only in the E-step rounding and the
    objective: hard EM weights pairs by their 0/1 `Responsibilities`
    labels and traces the complete-data log-likelihood, each pair's joint
    log density under its label; soft EM weights them by their posteriors
    and traces the marginal log-likelihood.
    Iterates until |alpha_curr - alpha_prev| <= epsilon or max_iters.
    When hard EM's E-step repeats the labels of its last M-step, refitting
    to them would return the same model: that iteration runs no M-step or
    E-step and records the same step again (trace.iterations counts it),
    and the next one sees alpha unchanged and stops.

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

    resp = Responsibilities(_e_step(model, r_aligned, r_noise)[0])
    trace = EmTrace()
    alpha_prev = np.inf
    fitted_h = None  # the labels of hard EM's last M-step
    for it in range(cfg.max_iters):
        if abs(model.alpha - alpha_prev) <= eps:
            break
        alpha_prev = model.alpha
        # at hard EM's fixed point the labels, so the step, would repeat
        if soft or not np.array_equal(resp.h, fitted_h):
            fitted_h = resp.h
            weights = resp.w if soft else fitted_h.astype(np.float64)  # 0/1 labels
            model, degenerate, r_aligned, r_noise = _m_step(model, X, Y, weights,
                                                            r_aligned, r_noise)
            # one pass over the data scores the new model and runs the next E-step
            w, loglik, ja, jn = _e_step(model, r_aligned, r_noise)
            objective = loglik if soft else float(ja[resp.h].sum() + jn[~resp.h].sum())

        if degenerate:
            trace.degenerate_iters.append(it)
        trace.steps.append((model.alpha, objective, resp.n1))
        resp = Responsibilities(w)
    trace.converged = abs(model.alpha - alpha_prev) <= eps
    if not trace.converged:
        logger.warning("EM stopped at max_iters=%d without converging: "
                       "|alpha change| %.3g > epsilon %.3g",
                       cfg.max_iters, abs(model.alpha - alpha_prev), eps)

    return model, resp, trace


def save_model(model: AlignmentModel, path, matrix_path=None) -> None:
    """Persist a fitted model as text: the Q block, then one line per
    parameter, named as in `align._MODEL_KEYS` and in that order.

    With `matrix_path`, Q is also saved there as by `align.save_matrix`,
    formatted once: the model file begins with the matrix file's bytes.
    """
    paths = (path,) if matrix_path is None else (path, matrix_path)
    with ExitStack() as stack:
        fh, *others = [stack.enter_context(open(p, "w", encoding="utf-8")) for p in paths]
        _write_matrix(model.Q, fh, *others)
        for key in _MODEL_KEYS:
            values = np.atleast_1d(getattr(model, key)).tolist()
            fh.write(" ".join([key, *(f"{v:.17g}" for v in values)]) + "\n")


def load_model(path) -> AlignmentModel:
    """Load a model saved by `save_model`; DataError if the file is malformed."""
    Q, tail = _parse_map(path, "model file")
    if not tail:
        raise DataError(f"model file {path} is malformed: it holds only a matrix")
    try:
        return AlignmentModel(Q=Q, **tail)
    except ValueError as exc:
        raise DataError(f"model file {path} is malformed: {exc}") from exc


def write_responsibilities_tsv(resp: Responsibilities, names, path) -> None:
    """Export per-pair decisions as TSV: index, tokens, weight, Aligned/Noise.

    `names[t]` is pair t's (source token, target token).
    """
    if len(names) != resp.w.size:
        raise ValueError(f"{resp.w.size} responsibilities for {len(names)} named pairs")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pair_index\tsrc_token\ttgt_token\tw\tlabel\n")
        for t, ((s, g), w, aligned) in enumerate(zip(names, resp.w.tolist(),
                                                     resp.h.tolist())):
            label = "Aligned" if aligned else "Noise"
            fh.write(f"{t}\t{s}\t{g}\t{w:.6g}\t{label}\n")
