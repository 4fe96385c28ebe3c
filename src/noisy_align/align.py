"""Baseline linear-map estimators between two d-dimensional spaces.

All solvers estimate a d x d matrix Q mapping source columns to target
columns, y ~ Q x. `procrustes` solves the orthogonality-constrained
problem in closed form via the SVD of Y X^T; `sgd_align` minimizes the
unconstrained Frobenius objective ||QX - Y||_F^2 by gradient descent,
full-batch or minibatch.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .io import DataError

ORTHO_TOL = 1e-8


@dataclass
class TranslationMatrix:
    """A d x d real translation matrix, tagged if orthogonal."""

    Q: np.ndarray
    orthogonal: bool = False

    def __post_init__(self):
        self.Q = np.asarray(self.Q, dtype=np.float64)
        if self.Q.ndim != 2 or self.Q.shape[0] != self.Q.shape[1]:
            raise ValueError(f"Q must be square, got shape {self.Q.shape}")
        if self.orthogonal:
            d = self.Q.shape[0]
            resid = np.linalg.norm(self.Q.T @ self.Q - np.eye(d))
            if resid > ORTHO_TOL:
                raise ValueError(
                    f"matrix tagged orthogonal but ||Q^T Q - I||_F = {resid:.3g}"
                )

    @property
    def dim(self) -> int:
        return self.Q.shape[0]

    def apply(self, X: np.ndarray) -> np.ndarray:
        return self.Q @ X


@dataclass
class SgdConfig:
    """Hyperparameters for the stochastic gradient baseline.

    learning_rate=None selects 0.4 / lambda_max(X X^T) and batch_size=None
    selects all pairs (full-batch gradient descent); both are resolved
    from the data in `sgd_align`.
    """

    learning_rate: float | None = None
    epochs: int = 200
    batch_size: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate is not None and self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be positive")


def _check_pair_shapes(X: np.ndarray, Y: np.ndarray) -> None:
    if X.shape != Y.shape:
        raise ValueError(f"shape mismatch: X {X.shape} vs Y {Y.shape}")
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValueError(f"expected d x n matrices with n >= 1, got {X.shape}")
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise ValueError("non-finite entries in input matrices")


def procrustes(X: np.ndarray, Y: np.ndarray) -> TranslationMatrix:
    """Orthogonal matrix minimizing ||QX - Y||_F^2 (closed form).

    Computes U V^T where U S V^T is the SVD of Y X^T. Reflections are
    allowed (no determinant correction). A warning is issued when X has
    rank below d: fewer than d columns, or numerically rank-deficient.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    _check_pair_shapes(X, Y)
    d, n = X.shape
    # X^T = QR gives R the singular values of X; the QR is a cheaper
    # O(d^2 n) pass than svd(X) and leaves only an O(d^3) SVD
    sv = np.linalg.svd(np.linalg.qr(X.T, mode="r"), compute_uv=False)
    if n < d or (sv[0] > 0 and sv[-1] < 1e-12 * sv[0]):
        warnings.warn("X is numerically rank-deficient; Procrustes solution "
                      "is not unique", RuntimeWarning, stacklevel=2)
    U, _, Vt = np.linalg.svd(Y @ X.T)
    return TranslationMatrix(U @ Vt, orthogonal=True)


def weighted_procrustes(X: np.ndarray, Y: np.ndarray, w: np.ndarray) -> TranslationMatrix:
    """Orthogonal Q minimizing the weighted objective sum_t w_t ||Qx_t - y_t||^2.

    Solved as U V^T from the SVD of Y diag(w) X^T.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    _check_pair_shapes(X, Y)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (X.shape[1],):
        raise ValueError(f"weights shape {w.shape} does not match n={X.shape[1]}")
    if np.any(w < 0) or np.any(w > 1):
        raise ValueError("weights must lie in [0, 1]")
    if w.sum() <= 0:
        raise ValueError("weights sum to zero")
    U, _, Vt = np.linalg.svd((Y * w) @ X.T)
    return TranslationMatrix(U @ Vt, orthogonal=True)


def sgd_objective_grad(Q: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Gradient of ||QX - Y||_F^2 with respect to Q: 2 (QX - Y) X^T."""
    return 2.0 * (Q @ X - Y) @ X.T


def sgd_align(X: np.ndarray, Y: np.ndarray, cfg: SgdConfig | None = None) -> TranslationMatrix:
    """Unconstrained least-squares map fit by gradient descent.

    With one batch per epoch (cfg.batch_size None or >= n) every epoch
    takes the same full-batch step, written in Gram form:
    2 (QX - Y) X^T = 2 (Q C - B) with C = X X^T and B = Y X^T. C and B
    cost O(d^2 n) once, then each epoch costs O(d^3), and the result does
    not depend on cfg.seed. With smaller batches the seed drives the
    epoch shuffles and each step costs O(d^2 batch_size). The returned
    matrix does not carry the orthogonal tag. The default step
    0.4 / lambda_max(X X^T) is safely below the full-batch divergence
    limit 1 / (2 lambda_max(X X^T)).

    Raises:
        DataError: the objective became non-finite (diverged); the
            message names the offending learning rate.
    """
    cfg = cfg or SgdConfig()
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    _check_pair_shapes(X, Y)
    d, n = X.shape
    C = X @ X.T
    lr = cfg.learning_rate
    if lr is None:
        lr = 0.4 / max(float(np.linalg.norm(C, ord=2)), 1e-12)
    batch_size = cfg.batch_size or n
    full_batch = batch_size >= n
    if full_batch:
        B = Y @ X.T
    rng = np.random.default_rng(cfg.seed)
    Q = np.eye(d)
    # overflow is divergence, reported below rather than warned
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            if full_batch:
                Q = Q - lr * (2.0 * (Q @ C - B))
            else:
                order = rng.permutation(n)
                for start in range(0, n, batch_size):
                    batch = order[start:start + batch_size]
                    Q = Q - lr * sgd_objective_grad(Q, X[:, batch], Y[:, batch])
            if not np.isfinite(Q).all():
                raise DataError(
                    f"SGD diverged (non-finite objective) at learning_rate={lr}; reduce it"
                )
    return TranslationMatrix(Q, orthogonal=False)


def random_orthogonal(d: int, seed: int) -> TranslationMatrix:
    """Sample a uniformly distributed d x d orthogonal matrix.

    QR of a standard normal matrix with the R-diagonal sign correction,
    which makes the distribution invariant under left-multiplication by
    any fixed orthogonal matrix. Deterministic per seed.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, d))
    Q, R = np.linalg.qr(A)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return TranslationMatrix(Q * signs, orthogonal=True)


def _as_matrix(Q) -> np.ndarray:
    if isinstance(Q, TranslationMatrix):
        return Q.Q
    return np.asarray(Q, dtype=np.float64)


def alignment_error(Q, X: np.ndarray, Y: np.ndarray,
                    mask: np.ndarray | None = None) -> float:
    """Squared Frobenius alignment error sum_t ||Q x_t - y_t||^2.

    With `mask` (boolean per column or index list), restricted to the
    selected columns.
    """
    Qm = _as_matrix(Q)
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    _check_pair_shapes(X, Y)
    resid = Qm @ X - Y
    if mask is not None:
        mask = np.asarray(mask)
        resid = resid[:, mask]
        if resid.shape[1] == 0:
            raise ValueError("empty column mask")
    return float(np.sum(resid * resid))


def mean_alignment_error(Q, X: np.ndarray, Y: np.ndarray,
                         mask: np.ndarray | None = None) -> float:
    """Per-pair mean of the squared alignment error over the selected columns."""
    X = np.asarray(X, dtype=np.float64)
    if mask is None:
        count = X.shape[1]
    else:
        mask = np.asarray(mask)
        count = int(mask.sum()) if mask.dtype == bool else mask.size
    return alignment_error(Q, X, Y, mask) / count


def _write_matrix(fh, Qm: np.ndarray) -> None:
    """The `d` line and the d x d block below it, as `_parse_matrix` reads them."""
    fh.write(f"{Qm.shape[0]}\n")
    np.savetxt(fh, Qm, fmt="%.17g")


def save_matrix(Q, path) -> None:
    """Persist a translation matrix: first line `d`, then d rows of d floats."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_matrix(fh, _as_matrix(Q))


def _parse_matrix(lines: list[str], path) -> TranslationMatrix:
    """The `d` line and the d x d block below it, as written by `save_matrix`."""
    try:
        d = int(lines[0].split()[0])
        Q = np.array([line.split() for line in lines[1:d + 1]], dtype=np.float64)
    except (IndexError, ValueError) as exc:
        raise DataError(f"matrix in {path} is malformed: {exc}") from exc
    if d < 1 or Q.shape != (d, d) or not np.isfinite(Q).all():
        raise DataError(f"matrix in {path} is not a finite {d} x {d} block")
    resid = np.linalg.norm(Q.T @ Q - np.eye(d))
    return TranslationMatrix(Q, orthogonal=bool(resid <= ORTHO_TOL))


def load_matrix(path) -> TranslationMatrix:
    """Load a matrix saved by `save_matrix`; DataError if the file is malformed."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        return _parse_matrix(fh.read().splitlines(), path)
