"""End-to-end experiment drivers shared by the CLI and the demo scripts.

`fit_translation` and the whole `run_noise_curve` loop run under
`_blas.threads_for` of the fit's GEMM flops (`_fit_flops`): on one BLAS
thread below `_blas.THREADED_MIN_FLOPS`. The count is process-global, so
these functions are not meant to run in concurrent Python threads.
"""

from __future__ import annotations

import numpy as np

from ._blas import threads_for
from .align import (
    SgdConfig,
    alignment_error,
    procrustes,
    sgd_align,
)
from .mixture import EmConfig, em_fit
from .synthetic import make_noisy_problem

METHODS = ("op", "sgd", "em-hard", "em-soft")

# full-batch epochs of the 2D experiment's SGD fits (10 pairs each)
SYNTHETIC_2D_SGD_EPOCHS = 3000


def _fit_flops(method: str, d: int, n: int, sgd_cfg: SgdConfig | None = None) -> float:
    """Flops of a fit's GEMMs: the d x n x d M-step GEMM, 2 d^2 n, plus one
    d x d x d GEMM per epoch for full-batch SGD (`sgd_align`'s Gram form)."""
    cfg = sgd_cfg or SgdConfig()
    if method == "sgd" and (cfg.batch_size or n) >= n:
        return 2.0 * d * d * n + cfg.epochs * 2.0 * d ** 3
    return 2.0 * d * d * n


def noise_curve_error(n: int, levels, methods) -> tuple[str, str] | None:
    """Why `run_noise_curve` cannot run these settings, as (the parameter at
    fault, the reason), or None. The one range check of the noise levels."""
    for p in levels:  # `make_noisy_problem` makes round(p n) of the n pairs noisy
        if not (0.0 <= p < 1.0 and round(p * n) < n):
            return "levels", (f"noise level {p} must lie in [0, 1) and leave one of "
                              f"the {n} pairs clean")
    if n < 2 and {"em-hard", "em-soft"} & set(methods):
        return "methods", f"the EM methods need at least 2 training pairs, got n={n}"
    return None


def fit_translation(method: str, X: np.ndarray, Y: np.ndarray,
                    sgd_cfg: SgdConfig | None = None,
                    em_cfg: EmConfig | None = None):
    """Fit one of the four methods.

    Runs on one BLAS thread when the fit's GEMMs are small (module docstring).

    Returns:
        (Q, model, resp, trace): Q is the fitted d x d map, and the last
        three are None for the non-EM methods.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    # a malformed X is reported by the fit itself
    flops = _fit_flops(method, *np.shape(X), sgd_cfg) if np.ndim(X) == 2 else 0.0
    with threads_for(flops):
        if method == "op":
            return procrustes(X, Y), None, None, None
        if method == "sgd":
            return sgd_align(X, Y, sgd_cfg), None, None, None
        model, resp, trace = em_fit(X, Y, em_cfg, soft=method == "em-soft")
        return model.Q, model, resp, trace


def run_synthetic_2d(seed: int = 0) -> dict:
    """The 2D experiment: n=10 points, noise-free vs a single noisy pair.

    Fits op, sgd and em-hard on both variants and reports the alignment
    error restricted to the clean pairs, plus true/predicted coordinates
    of every point in the noisy variant for plotting.
    """
    report: dict = {"seed": seed, "n": 10, "d": 2}
    for variant, p in (("noise_free", 0.0), ("noisy", 0.1)):
        prob = make_noisy_problem(n=10, d=2, p=p, seed=seed)
        entry: dict = {"clean_error": {}, "noisy_index": [
            int(i) for i in np.flatnonzero(~prob.clean_mask)]}
        preds = {}
        sgd_cfg = SgdConfig(epochs=SYNTHETIC_2D_SGD_EPOCHS)
        for method in ("op", "sgd", "em-hard"):
            Q, _, resp, _ = fit_translation(method, prob.X, prob.Y, sgd_cfg=sgd_cfg)
            entry["clean_error"][method] = alignment_error(
                Q, prob.X, prob.Y, mask=prob.clean_mask)
            preds[method] = (Q @ prob.X).tolist()
            if method == "em-hard" and resp is not None:
                entry["em_labels"] = [bool(b) for b in resp.h]
        entry["points"] = {"true": prob.Y.tolist(), "predicted": preds}
        report[variant] = entry
    return report


def run_noise_curve(n: int = 1000, d: int = 50,
                    levels=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
                    test_n: int = 300, seeds=range(10),
                    methods=("op", "sgd", "em-hard")) -> list[tuple]:
    """Train/test error of each method as a function of the noise level.

    For every (level, seed) cell a planted noisy training problem and a
    clean test set under the same gold transform are built; train error
    is restricted to the clean training pairs.

    Returns:
        rows (method, p, seed, train_error, test_error), sorted.

    Raises:
        ValueError: settings that `noise_curve_error` rejects.
    """
    if problem := noise_curve_error(n, levels, methods):
        raise ValueError(problem[1])
    rows = []
    # one thread count for the whole loop, sized by its largest fit: the problem
    # generation and error products between the fits would wake the pool again
    with threads_for(max((_fit_flops(m, d, n) for m in methods), default=0.0)):
        for p in levels:
            for seed in seeds:
                prob = make_noisy_problem(n=n, d=d, p=p, seed=seed)
                test_rng = np.random.default_rng([seed, 9173])
                X_test = test_rng.standard_normal((d, test_n))
                Y_test = prob.Q_gold @ X_test
                for method in methods:
                    Q, _, _, _ = fit_translation(method, prob.X, prob.Y)
                    train_err = alignment_error(Q, prob.X, prob.Y, mask=prob.clean_mask)
                    test_err = alignment_error(Q, X_test, Y_test)
                    rows.append((method, float(p), int(seed), train_err, test_err))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return rows


def write_noise_curve_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("method,p,seed,train_error,test_error\n")
        for method, p, seed, tr, te in rows:
            fh.write(f"{method},{p},{seed},{tr:.10g},{te:.10g}\n")
