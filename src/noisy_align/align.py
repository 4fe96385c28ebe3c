"""Baseline linear-map estimators between two d-dimensional spaces.

All solvers return the map as a plain float64 d x d array Q taking
source columns to target columns, y ~ Q x. `procrustes` solves the
orthogonality-constrained problem in closed form via the SVD of Y X^T;
`sgd_align` minimizes the unconstrained Frobenius objective
||QX - Y||_F^2 by gradient descent, full-batch or minibatch. A map is
kept as text by `save_matrix` and `load_matrix`; `_write_matrix` formats
it one row at a time for both `save_matrix` and `mixture.save_model`, and
`_parse_map` reads both files back.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .io import DataError, _column_blocks, _read_lines


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
        # written so that NaN fails each check
        if self.learning_rate is not None and not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not (isinstance(self.epochs, Integral) and self.epochs >= 1):
            raise ValueError("epochs must be a positive integer")
        if self.batch_size is not None and not (isinstance(self.batch_size, Integral)
                                                and self.batch_size >= 1):
            raise ValueError("batch_size must be a positive integer")
        if not (isinstance(self.seed, Integral) and self.seed >= 0):
            raise ValueError("seed must be a non-negative integer")

    def full_batch(self, n: int) -> bool:
        """Whether one batch covers all n pairs, so every epoch takes the
        same full-batch step (the Gram form in `sgd_align`)."""
        return self.batch_size is None or self.batch_size >= n


def _pairs(X, Y) -> tuple[np.ndarray, np.ndarray]:
    """X and Y as float64 d x n matrices of equal shape, n >= 1, all finite."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.shape != Y.shape:
        raise ValueError(f"shape mismatch: X {X.shape} vs Y {Y.shape}")
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValueError(f"expected d x n matrices with n >= 1, got {X.shape}")
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise ValueError("non-finite entries in input matrices")
    return X, Y


def _check_product(M: np.ndarray | None, what: str) -> None:
    """DataError naming M as `what` when this product of the input vectors
    overflowed; huge but finite vectors make it do so."""
    if M is not None and not np.isfinite(M).all():
        raise DataError(f"{what} overflows float64: the vectors are too large")


def _column_residuals(X: np.ndarray, Y: np.ndarray, Q=None, mu_y=None,
                      cols=None) -> np.ndarray:
    """||Q x_t - y_t||^2, or ||y_t - mu_y||^2 when `mu_y` is given, for each
    column t or each of the indices `cols`.

    The difference is formed one block of columns at a time
    (`io._column_blocks`) and squared in place, so no d x n temporary is
    held. An overflow gives inf or NaN, which the caller reports.
    """
    r = np.empty(Y.shape[1] if cols is None else cols.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for s in _column_blocks(r.size):
            c = s if cols is None else cols[s]
            if mu_y is None:
                diff = Q @ X[:, c]
                diff -= Y[:, c]
            else:
                diff = Y[:, c] - mu_y[:, None]
            r[s] = np.sum(np.square(diff, out=diff), axis=0)
            del diff  # before the next block's difference is formed
    return r


def _svd(M: np.ndarray, what: str):
    """`np.linalg.svd(M)` of a d x d product of the input vectors.

    LAPACK's SVD of a matrix holding inf may never return, so a
    non-finite M is a DataError naming it as `what`.
    """
    _check_product(M, what)
    return np.linalg.svd(M)


def procrustes(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Orthogonal matrix minimizing ||QX - Y||_F^2 (closed form).

    Computes U V^T where U S V^T is the SVD of Y X^T. Reflections are
    allowed (no determinant correction). The solution is unique exactly
    when Y X^T is nonsingular, so a warning is issued when its smallest
    singular value is at most 1e-12 times its largest. That covers X or
    Y of rank below d, fewer than d columns, and a zero Y.

    Raises:
        DataError: the vectors are so large that Y X^T overflows.
    """
    X, Y = _pairs(X, Y)
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _svd
        M = Y @ X.T
    U, sv, Vt = _svd(M, "Y X^T")
    if sv[-1] <= 1e-12 * sv[0]:  # also a zero Y X^T
        warnings.warn("Y X^T is numerically rank-deficient; Procrustes solution "
                      "is not unique", RuntimeWarning, stacklevel=2)
    return U @ Vt


def weighted_procrustes(X: np.ndarray, Y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Orthogonal Q minimizing the weighted objective sum_t w_t ||Qx_t - y_t||^2.

    Solved as U V^T from the SVD of Y diag(w) X^T.

    Raises:
        DataError: the vectors are so large that Y diag(w) X^T overflows.
    """
    X, Y = _pairs(X, Y)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (X.shape[1],):
        raise ValueError(f"weights shape {w.shape} does not match n={X.shape[1]}")
    if not np.all((w >= 0) & (w <= 1)):  # also rejects NaN
        raise ValueError("weights must lie in [0, 1]")
    if w.sum() <= 0:
        raise ValueError("weights sum to zero")
    return _weighted_map(X, Y, w)


def _weighted_map(X: np.ndarray, Y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """`weighted_procrustes` of pairs and weights that the caller has
    checked. Y diag(w) X^T is summed one block of columns at a time
    (`io._column_blocks`), so no weighted copy of Y is held.

    M is the one d x d sum: each block's product P is added into it in
    place and dropped before the next block is weighted, so the SVD runs
    with M as the only d x d array of this function's own.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _svd
        for s in _column_blocks(X.shape[1]):
            P = (Y[:, s] * w[s]) @ X[:, s].T
            if s.start:
                M += P
            else:
                M = P
            del P
    U, _, Vt = _svd(M, "Y diag(w) X^T")
    return U @ Vt


def sgd_objective_grad(Q: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Gradient of ||QX - Y||_F^2 with respect to Q: 2 (QX - Y) X^T."""
    return 2.0 * (Q @ X - Y) @ X.T


def sgd_align(X: np.ndarray, Y: np.ndarray, cfg: SgdConfig | None = None) -> np.ndarray:
    """Unconstrained least-squares map fit by gradient descent.

    With one batch per epoch (`cfg.full_batch(n)`) every epoch takes the
    same full-batch step, written in Gram form:
    2 (QX - Y) X^T = 2 (Q C - B) with C = X X^T and B = Y X^T. C and B
    cost O(d^2 n) once, then each epoch costs O(d^3), and the result does
    not depend on cfg.seed. With smaller batches the seed drives the
    epoch shuffles and each step costs O(d^2 batch_size). The returned
    matrix is not constrained to be orthogonal. The default step
    0.4 / lambda_max(X X^T) is safely below the full-batch divergence
    limit 1 / (2 lambda_max(X X^T)).

    Raises:
        DataError: the vectors are so large that X X^T (or, full-batch,
            Y X^T) overflows; or the objective became non-finite
            (diverged), and the message names the offending learning rate.
    """
    cfg = cfg or SgdConfig()
    X, Y = _pairs(X, Y)
    d, n = X.shape
    full_batch = cfg.full_batch(n)
    # an inf in C would reach the SVD behind the default step's norm
    # (see `_svd`), and one in B would pass for divergence
    with np.errstate(over="ignore", invalid="ignore"):
        C = X @ X.T
        B = Y @ X.T if full_batch else None
    _check_product(C, "X X^T")
    _check_product(B, "Y X^T")
    lr = cfg.learning_rate
    if lr is None:
        lr = 0.4 / max(float(np.linalg.norm(C, ord=2)), 1e-12)
    # a full-batch fit reads no RNG, so it does not import numpy.random
    rng = None if full_batch else np.random.default_rng(cfg.seed)
    Q = np.eye(d)
    # overflow is divergence, reported below rather than warned
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            if full_batch:
                Q = Q - lr * (2.0 * (Q @ C - B))
            else:
                order = rng.permutation(n)
                for start in range(0, n, cfg.batch_size):
                    batch = order[start:start + cfg.batch_size]
                    Q = Q - lr * sgd_objective_grad(Q, X[:, batch], Y[:, batch])
            if not np.isfinite(Q).all():
                raise DataError(
                    f"SGD diverged (non-finite objective) at learning_rate={lr}; reduce it"
                )
    return Q


def random_orthogonal(d: int, seed: int) -> np.ndarray:
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
    return Q * signs


def alignment_error(Q: np.ndarray, X: np.ndarray, Y: np.ndarray,
                    mask: np.ndarray | None = None) -> float:
    """Squared Frobenius alignment error sum_t ||Q x_t - y_t||^2.

    With `mask` (boolean per column or index list), restricted to the
    selected columns. It is the sum of `_column_residuals`, the residuals
    `mixture.initialize` sums into sigma2.

    Raises:
        DataError: the error does not fit in a float64 (for example a
            map with huge entries makes Q @ X or the sum of squares
            overflow).
    """
    X, Y = _pairs(X, Y)
    cols = None if mask is None else np.arange(X.shape[1])[np.asarray(mask)]
    if cols is not None and cols.size == 0:
        raise ValueError("empty column mask")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        err = float(np.sum(_column_residuals(X, Y, Q, cols=cols)))
    if not np.isfinite(err):
        raise DataError("alignment error overflows float64: the map or the "
                        "vectors are too large")
    return err


def _write_matrix(Q: np.ndarray, *files) -> None:
    """Write the `d` line and the d x d block below it, as `_parse_map`
    reads them, to each of `files`: the bytes of
    `np.savetxt(fh, Q, fmt="%.17g")` after the `d` line. Each row is
    converted and formatted once, one row at a time."""
    for fh in files:
        fh.write(f"{Q.shape[0]}\n")
    row = " ".join(["%.17g"] * Q.shape[1]) + "\n"
    for values in Q:
        line = row % tuple(values.tolist())
        for fh in files:
            fh.write(line)


def save_matrix(Q: np.ndarray, path) -> None:
    """Persist a translation matrix: first line `d`, then d rows of d floats."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_matrix(Q, fh)


# the parameter lines `mixture.save_model` writes after the map, in order
_MODEL_KEYS = ("sigma2", "mu_y", "sigma_y2", "alpha")


def _parse_map(path, what: str) -> tuple[np.ndarray, dict]:
    """Read the file `what`: the `d` line and the d x d block below it, as
    `save_matrix` writes them, then nothing or a model's `_MODEL_KEYS` lines,
    as `mixture.save_model` writes them. Anything else is a DataError.

    The file is outside input, so the block must be square and finite;
    whether it is orthogonal is checked only where that is required
    (`mixture.AlignmentModel`).

    Returns:
        (Q, tail): tail is empty or maps each key to its value, d floats
        for `mu_y` and one float for each other key.
    """
    lines = [line.split() for line in _read_lines(path, what)]
    try:
        (d,) = map(int, lines[0])  # exactly one field
        Q = np.array(lines[1:d + 1], dtype=np.float64)
        rest = lines[d + 1:]
        if rest and [row[:1] for row in rest] != [[key] for key in _MODEL_KEYS]:
            raise ValueError("only the lines " + ", ".join(_MODEL_KEYS)
                             + " may follow the block, in this order")
        tail = {key: np.array(values, dtype=np.float64) for key, *values in rest}
        if any(v.shape != ((d,) if k == "mu_y" else (1,)) for k, v in tail.items()):
            raise ValueError(f"mu_y takes {d} values and each other key one")
    except (IndexError, ValueError) as exc:
        raise DataError(f"{what} {path} is malformed: {exc}") from exc
    if d < 1 or Q.shape != (d, d) or not np.isfinite(Q).all():
        raise DataError(f"matrix in {path} is not a finite {d} x {d} block")
    return Q, {k: v if k == "mu_y" else float(v[0]) for k, v in tail.items()}


def load_matrix(path) -> np.ndarray:
    """Load the map of a file saved by `save_matrix` or `mixture.save_model`;
    DataError if the file is malformed."""
    return _parse_map(path, "matrix file")[0]
