import dataclasses
import math
import re
import tracemalloc
import warnings
from collections import Counter

import mpmath
import numpy as np
import pytest

from noisy_align import align, io as nio, mixture
from noisy_align.align import (alignment_error, load_matrix, random_orthogonal, save_matrix,
                               weighted_procrustes)
from noisy_align.experiments import fit_translation, run_noise_curve
from noisy_align.io import DataError
from noisy_align.mixture import (
    VAR_FLOOR,
    AlignmentModel,
    EmConfig,
    Responsibilities,
    _e_step,
    _m_step,
    em_fit,
    initialize,
    load_model,
    log_likelihood,
    save_model,
    write_responsibilities_tsv,
)
from noisy_align.synthetic import make_noisy_problem
from oracles import column_blocks, log_gaussian_iso, sample_generative
from test_io import traced_peak


def mp_log_gaussian(y, mean, var):
    """Extended-precision oracle for the isotropic Gaussian log density."""
    with mpmath.workdps(60):
        d = len(y)
        sq = mpmath.fsum((mpmath.mpf(a) - mpmath.mpf(b)) ** 2
                         for a, b in zip(y, mean))
        val = -mpmath.mpf(d) / 2 * mpmath.log(2 * mpmath.pi * mpmath.mpf(var)) \
            - sq / (2 * mpmath.mpf(var))
        return float(val)


def toy_model(d=2, alpha=0.5, sigma2=1.0, sigma_y2=1.0, seed=0):
    return AlignmentModel(Q=random_orthogonal(d, seed), sigma2=sigma2,
                          mu_y=np.zeros(d), sigma_y2=sigma_y2, alpha=alpha)


ALIGNED, NOISE = "||Qx - y||^2", "||y - mu_y||^2"


def square_sums(diff):
    """The per-column sums of squares of `diff`: each residual's formula."""
    return np.sum(diff * diff, axis=0)


def residuals(model, X, Y):
    """The aligned and noise residuals of `model` on (X, Y), by their formula."""
    return square_sums(model.Q @ X - Y), square_sums(Y - model.mu_y[:, None])


def pair_weight(model, x, y):
    """The E-step's posterior that the one pair (x, y) is aligned, through
    the density and E-step kernels that em_fit runs."""
    X, Y = np.reshape(x, (-1, 1)), np.reshape(y, (-1, 1))
    w = _e_step(model, *residuals(model, X, Y))[0]
    return float(w[0])


class TestAlignmentModel:
    @pytest.mark.parametrize("Q", [
        pytest.param(np.diag([2.0, 1.0]), id="scaled"),
        pytest.param((1 + 1e-7) * np.eye(2), id="barely-scaled"),
        pytest.param(np.eye(2)[:, :1], id="non-square"),
        pytest.param(np.ones(2), id="1-D"),
        pytest.param(np.array([[np.nan, 0.0], [0.0, 1.0]]), id="nan"),
    ])
    def test_rejects_a_q_that_is_not_square_orthogonal(self, Q):
        with pytest.raises(ValueError, match="Q must be"):
            AlignmentModel(Q=Q, sigma2=1.0, mu_y=np.zeros(2), sigma_y2=1.0, alpha=0.5)

    @pytest.mark.parametrize("field,value,message", [
        *((f, v, "component variances must be positive and finite")
          for f in ("sigma2", "sigma_y2") for v in (0.0, -1.0, np.inf, np.nan)),
        *(("alpha", v, "alpha must lie in [0, 1]") for v in (-0.1, 1.1, np.nan)),
    ])
    def test_rejects_a_parameter_out_of_range(self, field, value, message):
        params = dict(Q=np.eye(2), sigma2=1.0, mu_y=np.zeros(2), sigma_y2=1.0, alpha=0.5)
        with pytest.raises(ValueError) as exc:
            AlignmentModel(**{**params, field: value})
        assert str(exc.value) == message

    def test_orthogonality_check_forms_one_gram_matrix(self):
        # Q^T Q minus I in place: a separate identity and difference would
        # each add another d x d array to every M-step's model
        d = 300
        Q = random_orthogonal(d, 5)
        mu_y = np.zeros(d)
        peak = traced_peak(lambda: AlignmentModel(Q=Q, sigma2=1.0, mu_y=mu_y,
                                                  sigma_y2=1.0, alpha=0.5))[1]
        assert peak <= 1.1 * d * d * 8

    def test_q_is_a_float64_array(self):
        model = AlignmentModel(Q=[[0, 1], [1, 0]], sigma2=1.0, mu_y=np.zeros(2),
                               sigma_y2=1.0, alpha=0.5)
        assert model.Q.dtype == np.float64 and model.dim == 2


class TestResponsibilities:
    def test_labels_and_count_are_derived_from_the_weights(self):
        resp = Responsibilities(np.array([0.9, 0.5, 0.1, 0.51, 1.0, 0.0]))
        # a weight of exactly 0.5 is noise
        assert resp.h.tolist() == [True, False, False, True, True, False]
        assert resp.n1 == 3

    @pytest.mark.parametrize("name,value", [("h", np.array([False, True])), ("n1", 1)])
    def test_derived_fields_cannot_be_passed(self, name, value):
        with pytest.raises(TypeError):
            Responsibilities(w=np.array([0.9, 0.1]), **{name: value})

    @pytest.mark.parametrize("w", [[-0.1, 0.5], [0.5, 1.5], [math.nan, 0.5]])
    def test_weights_outside_the_unit_interval_are_rejected(self, w):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Responsibilities(np.array(w))


@pytest.mark.parametrize("field,value", [
    ("epsilon", 0.0), ("epsilon", -1e-3), ("epsilon", math.nan), ("epsilon", math.inf),
    ("max_iters", 0), ("max_iters", 2.5), ("max_iters", math.nan), ("max_iters", "3"),
])
def test_em_config_rejects_a_value_the_cli_rejects(field, value):
    with pytest.raises(ValueError, match=field):
        EmConfig(**{field: value})


def test_em_config_takes_a_numpy_integer():
    assert EmConfig(max_iters=np.int64(3)).max_iters == 3


def test_em_config_has_no_mode():
    # the EM variant is em_fit's `soft` flag, named nowhere else
    assert [f.name for f in dataclasses.fields(EmConfig)] == ["epsilon", "max_iters"]


class TestLogGaussianIso:
    def test_at_mean_d2(self):
        assert log_gaussian_iso(np.zeros(2), np.zeros(2), 1.0) == pytest.approx(
            -math.log(2 * math.pi))

    def test_d1_unit_offset(self):
        assert log_gaussian_iso(np.array([1.0]), np.array([0.0]), 1.0) == \
            pytest.approx(-0.5 * math.log(2 * math.pi) - 0.5)

    def test_underflow_regime_matches_extended_precision(self):
        # linear-space density is exp(-500-ish): far below float underflow
        d = 300
        y = np.zeros(d)
        mean = np.zeros(d)
        mean[0] = math.sqrt(10.0)  # ||y-mean||^2 = 10
        got = log_gaussian_iso(y, mean, 0.01)
        want = mp_log_gaussian(y, mean, 0.01)
        assert got == pytest.approx(want, abs=1e-9)

    def test_invalid_variance(self):
        with pytest.raises(ValueError):
            log_gaussian_iso(np.zeros(2), np.zeros(2), 0.0)


class TestPosterior:
    def test_symmetric_point(self):
        # Qx = mu_y = 0 and equal variances: both component densities match
        model = toy_model(d=2, alpha=0.5, seed=3)
        x = np.zeros(2)
        y = np.array([0.3, -1.2])
        assert pair_weight(model, x, y) == pytest.approx(0.5, abs=1e-12)

    def test_alpha_one(self):
        model = toy_model(alpha=1.0)
        assert pair_weight(model, np.zeros(2), 1e6 * np.ones(2)) == 1.0

    def test_alpha_zero(self):
        model = toy_model(alpha=0.0)
        assert pair_weight(model, np.zeros(2), np.zeros(2)) == 0.0

    def test_logistic_of_log_density_gap(self):
        # gap of 2 nats between components at alpha=0.5
        d = 1
        model = AlignmentModel(
            Q=random_orthogonal(1, 0), sigma2=1.0, mu_y=np.zeros(1),
            sigma_y2=1.0, alpha=0.5)
        sign = model.Q[0, 0]
        # ||Qx-y||^2/2 - ||y-mu||^2/2 = -2  =>  logN1 - logN0 = 2
        y = np.array([2.0])
        x = np.array([(y[0] - 0.0) * sign])  # aligned residual 0
        # noise residual: ||y||^2/2 = 2 nats
        assert pair_weight(model, x, y) == pytest.approx(1 / (1 + math.exp(-2)),
                                                       abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_threshold_consistent_with_density_comparison(self, seed):
        rng = np.random.default_rng(seed)
        model = toy_model(d=3, alpha=0.5, sigma2=0.7, sigma_y2=1.3, seed=seed)
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        la = log_gaussian_iso(y, model.Q @ x, model.sigma2)
        ln = log_gaussian_iso(y, model.mu_y, model.sigma_y2)
        assert (pair_weight(model, x, y) > 0.5) == (la > ln)


class TestLogLikelihood:
    def test_equal_components_single_pair(self):
        model = toy_model(d=2, alpha=0.5, seed=1)
        x = np.zeros(2)
        y = (model.Q @ x + model.mu_y) / 2 + np.array([0.0, 1.5])
        p = log_gaussian_iso(y, model.Q @ x, 1.0)
        assert log_likelihood(model, x[:, None], y[:, None]) == pytest.approx(p)

    def test_alpha_one_exact_fit(self):
        d, n = 4, 7
        Q = random_orthogonal(d, 2)
        X = np.random.default_rng(2).standard_normal((d, n))
        model = AlignmentModel(Q=Q, sigma2=0.3, mu_y=np.zeros(d),
                               sigma_y2=1.0, alpha=1.0)
        want = n * (-0.5 * d * math.log(2 * math.pi * 0.3))
        assert log_likelihood(model, X, Q @ X) == pytest.approx(want)

    def test_extended_precision_oracle(self):
        rng = np.random.default_rng(4)
        d, n = 5, 5
        model = toy_model(d=d, alpha=0.3, sigma2=0.5, sigma_y2=2.0, seed=4)
        X, Y = rng.standard_normal((d, n)), rng.standard_normal((d, n))
        with mpmath.workdps(60):
            total = mpmath.mpf(0)
            for t in range(n):
                la = mp_log_gaussian(Y[:, t], model.Q @ X[:, t], 0.5)
                ln = mp_log_gaussian(Y[:, t], model.mu_y, 2.0)
                f = mpmath.mpf("0.3") * mpmath.exp(la) + mpmath.mpf("0.7") * mpmath.exp(ln)
                total += mpmath.log(f)
            want = float(total)
        assert log_likelihood(model, X, Y) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_alpha_zero_or_one_is_one_components_likelihood(self, alpha):
        # the other component's joint is -inf: w and loglik come out exact
        # through the general E-step, and log 0 raises no warning
        rng = np.random.default_rng(7)
        d, n = 4, 9
        model = toy_model(d=d, alpha=alpha, sigma2=0.5, sigma_y2=2.0, seed=7)
        X, Y = rng.standard_normal((d, n)), 3.0 * rng.standard_normal((d, n))
        Y[:, 0] *= 1e3  # a pair far from both components
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, loglik, ja, jn = _e_step(model, *residuals(model, X, Y))
        if alpha == 1.0:
            own, other = ja, jn
            want = [log_gaussian_iso(Y[:, t], model.Q @ X[:, t], 0.5) for t in range(n)]
        else:
            own, other = jn, ja
            want = [log_gaussian_iso(Y[:, t], model.mu_y, 2.0) for t in range(n)]
        assert np.array_equal(w, np.full(n, alpha))
        assert np.all(other == -np.inf)
        np.testing.assert_allclose(own, want, rtol=1e-12)
        assert loglik == float(np.sum(own))


class TestInitialize:
    def test_perfect_fit_hits_variance_floor(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((3, 10))
        Q = random_orthogonal(3, 5)
        model = initialize(X, Q @ X)[0]
        assert model.sigma2 == VAR_FLOOR

    def test_constant_targets_floor_noise_variance(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((3, 10))
        Y = np.ones((3, 10))
        # a constant Y makes Y X^T rank 1
        with pytest.warns(RuntimeWarning, match="rank-deficient"):
            model = initialize(X, Y)[0]
        assert model.sigma_y2 == VAR_FLOOR

    def test_formula_recompute_oracle(self):
        rng = np.random.default_rng(7)
        d, n = 50, 1000
        X = rng.standard_normal((d, n))
        Y = rng.standard_normal((d, n))
        model = initialize(X, Y)[0]
        assert model.alpha == 0.5
        assert np.allclose(model.mu_y, Y.mean(axis=1), atol=1e-12)
        sigma2 = sum(np.sum((model.Q @ X[:, t] - Y[:, t]) ** 2)
                     for t in range(n)) / (n * d)
        sigma_y2 = sum(np.sum((Y[:, t] - Y.mean(axis=1)) ** 2)
                       for t in range(n)) / (n * d)
        assert model.sigma2 == pytest.approx(sigma2, rel=1e-12)
        assert model.sigma_y2 == pytest.approx(sigma_y2, rel=1e-12)

    def test_sigma2_shares_alignment_error_path(self):
        rng = np.random.default_rng(8)
        X, Y = rng.standard_normal((4, 30)), rng.standard_normal((4, 30))
        model = initialize(X, Y)[0]
        assert model.sigma2 == alignment_error(model.Q, X, Y) / (30 * 4)

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            initialize(np.ones((3, 1)), np.ones((3, 1)))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_variance_is_a_data_error_naming_the_residual(self):
        # each column's ||y - mu_y||^2 is about 4e306, their sum overflows
        rng = np.random.default_rng(0)
        X = rng.standard_normal((4, 100))
        Y = np.where(rng.random((4, 100)) < 0.5, -1e153, 1e153)
        with pytest.raises(DataError, match=r"^\|\|y - mu_y\|\|\^2 overflows float64"):
            em_fit(X, Y)

    def test_residuals_for_the_first_e_step_are_bit_identical(self):
        rng = np.random.default_rng(9)
        X, Y = rng.standard_normal((6, 40)), rng.standard_normal((6, 40))
        model, r, r0 = initialize(X, Y)
        want_r, want_r0 = residuals(model, X, Y)
        assert np.array_equal(r, want_r)
        assert np.array_equal(r0, want_r0)

    def test_em_fit_calls_initialize_by_its_module_name(self, monkeypatch):
        # a wrapper bound to `mixture.initialize` (as the benchmark's tracer
        # binds one) sees em_fit's one initialization
        calls = []

        def spy(X, Y, _fn=mixture.initialize):
            calls.append(X.shape)
            return _fn(X, Y)
        monkeypatch.setattr(mixture, "initialize", spy)
        X, Y, _ = jittered_instance(13)
        em_fit(X, Y)
        assert calls == [X.shape]

    @pytest.mark.parametrize("mode", ["hard", "soft"])
    def test_em_fit_computes_each_residual_once(self, mode, monkeypatch):
        # the initial model's residuals reach the first E-step, and each
        # M-step's residuals the next one: no E-step recomputes Q @ X or
        # the noise residual. Hard EM's last iteration repeats the labels
        # of the one before and runs no M-step. Each count holds one call
        # of `initialize`.
        calls = count_residual_calls(monkeypatch)
        X, Y, _ = jittered_instance(12)
        _, _, trace = em_fit(X, Y, soft=mode == "soft")
        assert trace.iterations >= 2 and not trace.degenerate_iters
        m_steps = trace.iterations - (mode == "hard")
        assert calls == {ALIGNED: 1 + m_steps, NOISE: 1 + m_steps}

    def test_kept_component_passes_its_residual_on(self, monkeypatch):
        # an all-noise fit keeps Q in its one M-step, so no Q @ X is redone
        # after `initialize`'s; the second iteration repeats the all-noise
        # labels and runs none
        calls = count_residual_calls(monkeypatch)
        X, Y = all_noise_instance()
        _, _, trace = em_fit(X, Y)
        assert trace.degenerate_iters == [0, 1]
        assert calls == {ALIGNED: 1, NOISE: 2}

    def test_a_residual_holds_one_d_by_n_array(self):
        # `_column_residuals` squares the difference in place: a second d x n array
        # would add its megabytes to every M-step at the benchmark's sizes
        rng = np.random.default_rng(10)
        X, Y = rng.standard_normal((300, 1000)), rng.standard_normal((300, 1000))
        model = toy_model(d=300, seed=10)
        tracemalloc.start()
        try:
            log_likelihood(model, X, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * X.nbytes


class TestColumnBlocks:
    """The fit takes each d x n intermediate one block of columns at a time."""

    BLOCK = nio._BLOCK_COLS

    @staticmethod
    def pairs(d, n, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((d, n))
        Q = random_orthogonal(d, seed)
        return X, Q @ X + rng.standard_normal((d, n)), Q, rng.standard_normal(d)

    @pytest.mark.parametrize("n", [2, BLOCK, BLOCK + 1])
    def test_one_block_has_the_bits_of_the_whole_matrix(self, n):
        # a last lone column joins the block before it
        X, Y, Q, mu = self.pairs(6, n, n)
        assert np.array_equal(align._column_residuals(X, Y, Q), square_sums(Q @ X - Y))
        assert np.array_equal(align._column_residuals(X, Y, mu_y=mu),
                              square_sums(Y - mu[:, None]))
        w = np.random.default_rng(n).random(n)
        U, _, Vt = np.linalg.svd((Y * w) @ X.T)
        assert np.array_equal(align._weighted_map(X, Y, w), U @ Vt)

    @pytest.mark.parametrize("n", [BLOCK + 2, 2 * BLOCK + 1, 3 * BLOCK + 5])
    def test_more_blocks_have_the_bits_of_each_block(self, n):
        X, Y, Q, mu = self.pairs(6, n, n)
        blocks = column_blocks(n, self.BLOCK)
        want = np.concatenate([square_sums(Q @ X[:, s] - Y[:, s]) for s in blocks])
        assert np.array_equal(align._column_residuals(X, Y, Q), want)
        want = np.concatenate([square_sums(Y[:, s] - mu[:, None]) for s in blocks])
        assert np.array_equal(align._column_residuals(X, Y, mu_y=mu), want)
        w = np.random.default_rng(n).random(n)
        M = (Y[:, blocks[0]] * w[blocks[0]]) @ X[:, blocks[0]].T
        for s in blocks[1:]:
            M = M + (Y[:, s] * w[s]) @ X[:, s].T
        U, _, Vt = np.linalg.svd(M)
        assert np.array_equal(align._weighted_map(X, Y, w), U @ Vt)

    @pytest.mark.parametrize("fit", [
        pytest.param(lambda X, Y: em_fit(X, Y), id="hard"),
        pytest.param(lambda X, Y: em_fit(X, Y, soft=True), id="soft"),
        pytest.param(lambda X, Y: log_likelihood(initialize(X, Y)[0], X, Y),
                     id="log_likelihood"),
    ])
    def test_holds_one_block_besides_the_pairs(self, fit):
        # a block is 1024 of 3000 columns; a d x n residual, product or
        # weighted copy of Y would add X.nbytes
        X, Y, _, _ = self.pairs(100, 3000, 7)
        peak = traced_peak(fit, X, Y)[1]
        assert peak < 0.75 * X.nbytes

    @pytest.mark.parametrize("side", ["X", "Y"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_em_fit_checks_finiteness_once(self, side, value, monkeypatch):
        # through `initialize`'s Procrustes; no M-step checks again
        calls = []

        def spy(X, Y, _fn=align._pairs):
            calls.append(X.shape)
            return _fn(X, Y)
        monkeypatch.setattr(align, "_pairs", spy)
        X, Y, _ = jittered_instance(14)
        _, _, trace = em_fit(X, Y, soft=True)
        assert trace.iterations > 1 and calls == [X.shape]
        (X if side == "X" else Y)[1, 2] = value
        with pytest.raises(ValueError, match="^non-finite entries in input matrices$"):
            em_fit(X, Y)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("aligned, what", [(True, "||Qx - y||^2"), (False, "||y - mu_y||^2")],
                         ids=["aligned", "noise"])
def test_m_step_overflowing_variance_is_a_data_error(aligned, what):
    # every column's residual is finite, about 1.44e308, and their weighted
    # sum overflows; the other component keeps its parameters
    X = np.random.default_rng(4).standard_normal((2, 4))
    Y = np.array([[1.2e154, -1.2e154, 1.2e154, -1.2e154], [0.0, 0.0, 0.0, 0.0]])
    model = AlignmentModel(Q=np.eye(2), sigma2=1.0, mu_y=np.zeros(2), sigma_y2=1.0, alpha=0.5)
    Q = weighted_procrustes(X, Y, np.ones(4))
    assert np.isfinite(square_sums(Q @ X - Y)).all()
    assert np.isfinite(square_sums(Y)).all()  # mu_y = 0
    with pytest.raises(DataError, match=f"^{re.escape(what)} overflows float64"):
        _m_step(model, X, Y, np.full(4, float(aligned)), np.ones(4), np.ones(4))


@pytest.mark.filterwarnings("error")
def test_m_step_infinite_residual_of_a_weightless_pair_is_a_data_error():
    # the last pair's ||Qx - y||^2 overflows to inf; its weight of 0 makes
    # the weighted sum NaN, not a finite sigma2
    X = np.random.default_rng(5).standard_normal((2, 4))
    Y = X.copy()
    Y[:, 3] = [1e200, -1e200]
    model = AlignmentModel(Q=np.eye(2), sigma2=1.0, mu_y=np.zeros(2), sigma_y2=1.0, alpha=0.5)
    with pytest.raises(DataError, match=r"^\|\|Qx - y\|\|\^2 overflows float64"):
        _m_step(model, X, Y, np.array([1.0, 1.0, 1.0, 0.0]), np.ones(4), np.ones(4))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("aligned, what", [(True, ALIGNED), (False, NOISE)],
                         ids=["aligned", "noise"])
def test_log_likelihood_overflowing_residual_is_a_data_error(aligned, what):
    # the first pair's residual overflows to inf under both components, or,
    # where X = Y, under the noise one alone
    Y = np.array([[1e200, 0.0], [0.0, 0.0]])
    X = np.eye(2) if aligned else Y
    model = AlignmentModel(Q=np.eye(2), sigma2=1.0, mu_y=np.zeros(2), sigma_y2=1.0, alpha=0.5)
    with pytest.raises(DataError, match=f"^{re.escape(what)} overflows float64"):
        log_likelihood(model, X, Y)


def count_residual_calls(monkeypatch) -> Counter:
    """Count the calls of `mixture._column_residuals`, by the residual they
    give: the noise one when `mu_y` is given, else the aligned one."""
    calls = Counter()

    def spy(X, Y, Q=None, mu_y=None, _fn=mixture._column_residuals):
        calls[ALIGNED if mu_y is None else NOISE] += 1
        return _fn(X, Y, Q, mu_y)
    monkeypatch.setattr(mixture, "_column_residuals", spy)
    return calls


def reference_em_fit(X, Y, cfg=None, soft=False):
    """`em_fit` with an M-step and an E-step in every iteration: it stops
    once alpha moves by at most epsilon and, in hard EM, the labels repeat
    those of the iteration's M-step, or, in soft EM, the mean log-likelihood
    per pair moves by at most epsilon. So hard EM refits to labels that
    repeat its last M-step's and stops there."""
    cfg = cfg or EmConfig()
    model, r_aligned, r_noise = initialize(X, Y)
    n = X.shape[1]
    eps = cfg.epsilon if cfg.epsilon is not None else max(1.0 / (2 * n), 1e-4)
    w, loglik = _e_step(model, r_aligned, r_noise)[:2]
    resp = Responsibilities(w)
    trace = mixture.EmTrace()
    for it in range(cfg.max_iters):
        alpha_prev, loglik_prev, fitted = model.alpha, loglik, resp.h
        weights = resp.w if soft else resp.h.astype(np.float64)
        model, degenerate, r_aligned, r_noise = _m_step(model, X, Y, weights,
                                                        r_aligned, r_noise)
        w, loglik, ja, jn = _e_step(model, r_aligned, r_noise)
        objective = loglik if soft else float(ja[resp.h].sum() + jn[~resp.h].sum())
        if degenerate:
            trace.degenerate_iters.append(it)
        trace.steps.append((model.alpha, objective, resp.n1))
        resp = Responsibilities(w)
        settled = (abs(loglik - loglik_prev) / n <= eps if soft
                   else np.array_equal(resp.h, fitted))
        trace.converged = abs(model.alpha - alpha_prev) <= eps and settled
        if trace.converged:
            break
    return model, resp, trace


def assert_same_fit(got, want):
    """Bit-for-bit equality of two (model, responsibilities, trace) fits."""
    (model, resp, trace), (ref_model, ref_resp, ref_trace) = got, want
    assert np.array_equal(model.Q, ref_model.Q)
    assert np.array_equal(model.mu_y, ref_model.mu_y)
    assert (model.sigma2, model.sigma_y2, model.alpha) == \
        (ref_model.sigma2, ref_model.sigma_y2, ref_model.alpha)
    assert np.array_equal(resp.w, ref_resp.w) and np.array_equal(resp.h, ref_resp.h)
    assert trace.steps == ref_trace.steps
    assert trace.converged == ref_trace.converged
    assert trace.degenerate_iters == ref_trace.degenerate_iters


def all_noise_instance():
    """Y far from every mapped x: the first hard E-step labels all pairs noise."""
    rng = np.random.default_rng(10)
    X = rng.standard_normal((5, 50))
    Y = 100.0 + 0.1 * rng.standard_normal((5, 50))
    return X, Y


def all_aligned_instance():
    """Noise-free pairs: every hard M-step leaves the noise component empty."""
    prob = make_noisy_problem(n=50, d=5, p=0.0, seed=9)
    return prob.X, prob.Y


def relabelled_instance():
    """Loosely related pairs: the second hard labels count as many aligned
    pairs as the first (33), but two pairs trade places, so the labels do
    not repeat."""
    rng = np.random.default_rng(3)
    X = rng.standard_normal((5, 80))
    Y = 0.5 * X + 0.5 * rng.standard_normal((5, 80))
    return X, Y


def hard_objective_oracle(model, X, Y, h):
    """Complete-data log-likelihood of `model` and the labels h, summed one
    pair at a time: log alpha + log f1 for an aligned pair, log(1 - alpha)
    + log f0 for a noise pair."""
    total = 0.0
    for t in range(X.shape[1]):
        if h[t]:
            total += (log_gaussian_iso(Y[:, t], model.Q @ X[:, t], model.sigma2)
                      + math.log(model.alpha))
        else:
            total += (log_gaussian_iso(Y[:, t], model.mu_y, model.sigma_y2)
                      + math.log1p(-model.alpha))
    return total


def jittered_instance(seed, d=None, n=None, p=None, jitter=0.05):
    rng = np.random.default_rng(seed)
    d = d or int(rng.integers(2, 20))
    n = n or int(rng.integers(20, 200))
    p = p if p is not None else float(rng.uniform(0.05, 0.4))
    prob = make_noisy_problem(n, d, p, seed)
    Y = prob.Y + jitter * rng.standard_normal(prob.Y.shape)
    return prob.X, Y, prob


# the instances the EM checks run on: EM from mixed labels, all-noise
# (degenerate in iterations [0, 1]) and all-aligned (alpha -> 1)
EM_INSTANCES = [
    pytest.param(lambda: jittered_instance(60)[:2], id="jittered-60"),
    pytest.param(lambda: jittered_instance(61)[:2], id="jittered-61"),
    pytest.param(all_noise_instance, id="all-noise"),
    pytest.param(all_aligned_instance, id="all-aligned"),
]


class TestEmFit:
    def test_noise_free_converges_to_all_aligned(self):
        prob = make_noisy_problem(n=1000, d=50, p=0.0, seed=0)
        model, resp, trace = em_fit(prob.X, prob.Y)
        assert model.alpha == 1.0
        assert resp.h.all()
        assert np.linalg.norm(model.Q - prob.Q_gold) < 1e-6

    def test_single_noisy_pair_2d(self):
        prob = make_noisy_problem(n=10, d=2, p=0.1, seed=3)
        model, resp, trace = em_fit(prob.X, prob.Y)
        assert alignment_error(model.Q, prob.X, prob.Y, prob.clean_mask) < 1e-6
        assert not resp.h[~prob.clean_mask][0]
        assert resp.h[prob.clean_mask].all()

    @pytest.mark.parametrize("seed", range(5))
    def test_planted_noise_recovered(self, seed):
        prob = make_noisy_problem(n=300, d=20, p=0.2, seed=seed)
        model, resp, trace = em_fit(prob.X, prob.Y)
        assert np.array_equal(~resp.h, ~prob.clean_mask)

    def test_deterministic_bit_for_bit(self):
        X, Y, _ = jittered_instance(11)
        out1 = em_fit(X, Y, soft=True)
        out2 = em_fit(X, Y, soft=True)
        assert out1[2].steps == out2[2].steps
        assert np.array_equal(out1[0].Q, out2[0].Q)
        assert np.array_equal(out1[1].w, out2[1].w)

    @pytest.mark.parametrize("mode", ["hard", "soft"])
    def test_objective_monotone(self, mode):
        for seed in range(10):
            X, Y, _ = jittered_instance(seed + 50)
            _, _, trace = em_fit(X, Y, soft=mode == "soft")
            objs = [obj for _, obj, _ in trace.steps]
            assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))

    @pytest.mark.filterwarnings("ignore:EM stopped at max_iters=")
    @pytest.mark.parametrize("instance", EM_INSTANCES)
    def test_hard_objective_matches_a_per_pair_oracle(self, instance):
        X, Y = instance()
        trace = em_fit(X, Y)[2]
        # iteration k scores the model it fitted under the labels it fitted to;
        # at alpha = 0.5 the first labels go to the denser component
        model = initialize(X, Y)[0]
        h = np.array([log_gaussian_iso(Y[:, t], model.Q @ X[:, t], model.sigma2)
                      > log_gaussian_iso(Y[:, t], model.mu_y, model.sigma_y2)
                      for t in range(X.shape[1])])
        for k, (alpha, objective, n1) in enumerate(trace.steps, start=1):
            model, resp, _ = em_fit(X, Y, EmConfig(max_iters=k))
            assert model.alpha == alpha and h.sum() == n1
            assert objective == pytest.approx(hard_objective_oracle(model, X, Y, h),
                                              rel=1e-12)
            h = resp.h

    def test_hard_trace_alpha_equals_n1_over_n(self):
        X, Y, prob = jittered_instance(21)
        n = X.shape[1]
        _, _, trace = em_fit(X, Y)
        for alpha, _, n1 in trace.steps:
            assert alpha == n1 / n

    def test_responsibility_invariants(self):
        X, Y, _ = jittered_instance(33)
        _, resp, _ = em_fit(X, Y, soft=True)
        assert np.all((resp.w >= 0) & (resp.w <= 1))
        assert resp.n1 == int(resp.h.sum())
        assert np.array_equal(resp.h, resp.w > 0.5)

    @pytest.mark.filterwarnings("ignore:EM stopped at max_iters=")
    @pytest.mark.parametrize("mode", ["hard", "soft"])
    @pytest.mark.parametrize("max_iters", [1, 2, 100])
    def test_responsibilities_are_the_returned_models_e_step(self, mode, max_iters):
        prob = make_noisy_problem(n=500, d=20, p=0.3, seed=1)
        model, resp, _ = em_fit(prob.X, prob.Y, EmConfig(max_iters=max_iters),
                                soft=mode == "soft")
        w = _e_step(model, *residuals(model, prob.X, prob.Y))[0]
        assert np.array_equal(resp.w, w)
        assert np.array_equal(resp.h, resp.w > 0.5)

    def test_degenerate_all_aligned_is_frozen_not_fatal(self):
        prob = make_noisy_problem(n=50, d=5, p=0.0, seed=9)
        model, resp, trace = em_fit(prob.X, prob.Y)
        assert trace.degenerate_iters  # noise component went empty
        assert model.alpha == 1.0

    def test_degenerate_all_noise_keeps_q(self):
        # every M-step keeps the aligned component, Q included
        X, Y = all_noise_instance()
        model, resp, trace = em_fit(X, Y)
        assert trace.degenerate_iters == [0, 1] and trace.converged
        assert model.alpha == 0.0 and resp.n1 == 0
        assert np.array_equal(model.Q, initialize(X, Y)[0].Q)

    def test_max_iters_respected(self):
        X, Y, _ = jittered_instance(44)
        _, _, trace = em_fit(X, Y, EmConfig(epsilon=1e-300, max_iters=3))
        assert trace.iterations <= 3

    def test_too_few_pairs(self):
        with pytest.raises(ValueError, match="at least 2 pairs"):
            em_fit(np.ones((3, 1)), np.ones((3, 1)))

    def test_stopping_at_max_iters_logs_a_warning(self):
        X, Y, _ = jittered_instance(44)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, _, trace = em_fit(X, Y, EmConfig(epsilon=1e-300, max_iters=2), soft=True)
        assert not trace.converged
        assert [w.category for w in caught] == [UserWarning]
        assert "max_iters=2 without converging" in str(caught[0].message)

    def test_converged_fit_logs_no_warning(self):
        X, Y, _ = jittered_instance(44)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, _, trace = em_fit(X, Y, soft=True)
        assert trace.converged and not caught

    @pytest.mark.parametrize("mode", ["hard", "soft"])
    def test_fit_capped_at_its_iteration_count_converges(self, mode):
        X, Y, _ = jittered_instance(44)
        iterations = em_fit(X, Y, soft=mode == "soft")[2].iterations
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, _, trace = em_fit(X, Y, EmConfig(max_iters=iterations), soft=mode == "soft")
        assert trace.iterations == iterations
        assert trace.converged and not caught

    @pytest.mark.parametrize("mode", ["hard", "soft"])
    @pytest.mark.parametrize("instance", EM_INSTANCES + [
        *(pytest.param(lambda seed=seed: jittered_instance(seed)[:2], id=f"jittered-{seed}")
          for seed in (62, 63, 69, 74, 77)),
        pytest.param(relabelled_instance, id="relabelled")])
    def test_matches_a_loop_that_runs_every_m_step(self, mode, instance):
        X, Y = instance()
        soft = mode == "soft"
        assert_same_fit(em_fit(X, Y, soft=soft), reference_em_fit(X, Y, soft=soft))

    @pytest.mark.filterwarnings("ignore:EM stopped at max_iters=")
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("instance", EM_INSTANCES)
    def test_capped_at_the_repeat_matches_a_loop_that_runs_every_m_step(
            self, instance, offset):
        # hard EM's labels repeat in its last iteration: a cap just before
        # that iteration, at it or after it gives the reference's fit
        X, Y = instance()
        steps = reference_em_fit(X, Y)[2].steps
        assert len(steps) >= 2 and steps[-1] == steps[-2]
        cfg = EmConfig(max_iters=len(steps) + offset)
        assert_same_fit(em_fit(X, Y, cfg), reference_em_fit(X, Y, cfg))

    @pytest.mark.filterwarnings("ignore:EM stopped at max_iters=")
    def test_relabelled_instance_keeps_the_count_not_the_labels(self):
        # what makes it the case a check of n1 alone would call a repeat
        X, Y = relabelled_instance()
        h0 = Responsibilities(_e_step(*initialize(X, Y))[0]).h
        h1 = em_fit(X, Y, EmConfig(max_iters=1))[1].h
        assert h0.sum() == h1.sum() == 33 and (h0 != h1).sum() == 2

    def test_hard_em_runs_to_its_fixed_point_whatever_epsilon(self):
        # an epsilon that any change of alpha meets: the labels still decide,
        # and the fit stops without the repeated step
        X, Y = jittered_instance(77)[:2]
        model, resp, trace = em_fit(X, Y, EmConfig(epsilon=1.0))
        fixed_model, fixed_resp, fixed_trace = em_fit(X, Y)
        assert trace.converged and trace.iterations == fixed_trace.iterations - 1 > 1
        assert np.array_equal(model.Q, fixed_model.Q)
        assert np.array_equal(resp.h, fixed_resp.h)

    def test_hard_em_at_the_default_epsilon_waits_for_the_labels(self, monkeypatch):
        # n > 5000 makes the default epsilon 1e-4, less than one label in n:
        # an iteration that swaps labels without changing their count moves
        # alpha by 0, and the fit must not stop there
        fitted = []

        def spy(model, X, Y, w, *rest, _fn=mixture._m_step):
            fitted.append(w.astype(bool))
            return _fn(model, X, Y, w, *rest)
        monkeypatch.setattr(mixture, "_m_step", spy)
        X, Y, _ = jittered_instance(8, d=5, n=6000, p=0.4, jitter=1.0)
        model, resp, trace = em_fit(X, Y)
        alphas = [0.5] + [step[0] for step in trace.steps]
        # iteration i fits the labels fitted[i], and its E-step gives fitted[i + 1]
        swaps = [i for i in range(len(fitted) - 1) if abs(alphas[i + 1] - alphas[i]) <= 1e-4
                 and not np.array_equal(fitted[i + 1], fitted[i])]
        assert swaps == [5, 10, 15]
        # the fit stopped in the iteration after its last M-step, whose labels repeated
        assert trace.converged and trace.iterations == len(fitted) + 1
        assert np.array_equal(resp.h, fitted[-1])
        # one more E-step of the returned model gives the returned labels
        w = _e_step(model, align._column_residuals(X, Y, model.Q),
                    align._column_residuals(X, Y, mu_y=model.mu_y))[0]
        assert np.array_equal(w > 0.5, resp.h)

    @pytest.mark.parametrize("mode", ["hard", "soft"])
    def test_weighted_procrustes_runs_once_per_m_step(self, mode, monkeypatch):
        # soft EM fits Q in every iteration; hard EM's last iteration
        # repeats the labels of the one before and refits nothing
        # the M-step's weighted Procrustes is the unchecked kernel
        calls = []

        def spy(X, Y, w, _fn=mixture._weighted_map):
            calls.append(w)
            return _fn(X, Y, w)
        monkeypatch.setattr(mixture, "_weighted_map", spy)
        X, Y, _ = jittered_instance(77)
        _, resp, trace = em_fit(X, Y, soft=mode == "soft")
        assert trace.iterations == 4 and trace.converged
        if mode == "soft":
            assert len(calls) == trace.iterations
        else:
            assert len(calls) == trace.iterations - 1
            assert trace.steps[-1] == trace.steps[-2]
            assert np.array_equal(calls[-1], resp.h)  # the fixed point's labels


def test_soft_em_reaches_its_fixed_point_on_a_half_noisy_lexicon():
    # alpha starts at 0.5, so on a half-noisy lexicon the first M-step moves
    # it by less than epsilon; the fit must not stop there
    rows = run_noise_curve(levels=(0.5,), seeds=range(10), methods=("em-soft",))
    assert len(rows) == 10 and max(test_error for *_, test_error in rows) <= 1e-10


@pytest.mark.parametrize("mode, why", [("hard", "the labels changed"),
                                       ("soft", "the log-likelihood changed")])
def test_a_capped_fit_whose_alpha_settled_says_what_did_not(mode, why):
    # an epsilon that any change of alpha meets; one M-step from the start
    prob = make_noisy_problem(n=400, d=20, p=0.5, seed=2)
    with pytest.warns(UserWarning, match=f"^EM stopped at max_iters=1 without converging: {why}$"):
        trace = em_fit(prob.X, prob.Y, EmConfig(epsilon=1.0, max_iters=1),
                       soft=mode == "soft")[2]
    assert not trace.converged


class TestEmMetamorphic:
    """Transforming the pairs transforms the fit: Q to 1e-8, the labels
    exactly. Rotating Y by S gives S Q, rotating X by R gives Q R^T,
    permuting the pairs permutes w and h, and scaling both spaces by 2
    changes neither Q nor h (the log-likelihood moves by a constant, so
    soft EM's stop does not)."""

    D, N = 20, 400

    @staticmethod
    def transformed(kind, X, Y, seed):
        """(X', Y') and the (Q, w, h) that a fit of them should give from the
        fit (Q, w, h) of (X, Y)."""
        if kind == "rotate-y":
            S = random_orthogonal(X.shape[0], seed + 100)
            return X, S @ Y, lambda Q, w, h: (S @ Q, w, h)
        if kind == "rotate-x":
            R = random_orthogonal(X.shape[0], seed + 200)
            return R @ X, Y, lambda Q, w, h: (Q @ R.T, w, h)
        if kind == "permute":
            perm = np.random.default_rng(seed).permutation(X.shape[1])
            return X[:, perm], Y[:, perm], lambda Q, w, h: (Q, w[perm], h[perm])
        return 2.0 * X, 2.0 * Y, lambda Q, w, h: (Q, w, h)

    @pytest.mark.parametrize("kind", ["rotate-y", "rotate-x", "permute", "scale"])
    @pytest.mark.parametrize("mode", ["hard", "soft"])
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.7])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_fit_follows_the_transform(self, kind, mode, p, seed):
        prob = make_noisy_problem(n=self.N, d=self.D, p=p, seed=seed)
        soft = mode == "soft"
        model, resp, trace = em_fit(prob.X, prob.Y, soft=soft)
        X, Y, expect = self.transformed(kind, prob.X, prob.Y, seed)
        got_model, got_resp, got_trace = em_fit(X, Y, soft=soft)
        Q, w, h = expect(model.Q, resp.w, resp.h)
        assert trace.converged and got_trace.converged
        assert np.abs(got_model.Q - Q).max() <= 1e-8
        assert np.array_equal(got_resp.h, h)
        assert np.abs(got_resp.w - w).max() <= 1e-8


@pytest.mark.filterwarnings("ignore:EM stopped at max_iters=")
def test_method_string_selects_soft_and_keeps_other_settings():
    X, Y, _ = jittered_instance(44)
    cfg = EmConfig(max_iters=2, epsilon=1e-300)
    _, _, resp, trace = fit_translation("em-soft", X, Y, em_cfg=cfg)
    _, soft_resp, soft_trace = em_fit(X, Y, cfg, soft=True)
    _, _, hard_resp, hard_trace = fit_translation("em-hard", X, Y, em_cfg=cfg)
    assert trace.iterations == 2 and not trace.converged
    assert trace.steps == soft_trace.steps != hard_trace.steps
    assert np.array_equal(resp.w, soft_resp.w)
    assert hard_trace.steps == em_fit(X, Y, cfg)[2].steps


class TestSampleGenerative:
    def test_alpha_one_near_exact(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((3, 20))
        model = AlignmentModel(Q=random_orthogonal(3, 1), sigma2=VAR_FLOOR,
                               mu_y=np.zeros(3), sigma_y2=1.0, alpha=1.0)
        Y, z = sample_generative(model, X, seed=0)
        assert z.all()
        assert np.allclose(Y, model.Q @ X, atol=1e-4)

    def test_alpha_zero_centers_on_noise_mean(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((3, 5000))
        mu = np.array([5.0, -2.0, 0.5])
        model = AlignmentModel(Q=random_orthogonal(3, 2), sigma2=1.0,
                               mu_y=mu, sigma_y2=0.25, alpha=0.0)
        Y, z = sample_generative(model, X, seed=1)
        assert not z.any()
        assert np.allclose(Y.mean(axis=1), mu, atol=0.05)

    def test_bernoulli_concentration(self):
        model = toy_model(alpha=0.7)
        X = np.zeros((2, 10_000))
        _, z = sample_generative(model, X, seed=5)
        assert 0.68 <= z.mean() <= 0.72

    def test_deterministic_per_seed(self):
        model = toy_model(alpha=0.5)
        X = np.random.default_rng(3).standard_normal((2, 100))
        Y1, z1 = sample_generative(model, X, seed=7)
        Y2, z2 = sample_generative(model, X, seed=7)
        assert np.array_equal(Y1, Y2) and np.array_equal(z1, z2)


def test_model_save_load_round_trip(tmp_path):
    X, Y, _ = jittered_instance(55)
    model, _, _ = em_fit(X, Y)
    path = tmp_path / "model.txt"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.Q, model.Q)
    assert loaded.sigma2 == model.sigma2
    assert np.array_equal(loaded.mu_y, model.mu_y)
    assert loaded.sigma_y2 == model.sigma_y2
    assert loaded.alpha == model.alpha


def test_load_model_reads_no_byte_order_mark(tmp_path):
    model = toy_model(d=3, alpha=0.25)
    path = tmp_path / "model.txt"
    save_model(model, path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    loaded = load_model(path)
    assert np.array_equal(loaded.Q, model.Q) and np.array_equal(loaded.mu_y, model.mu_y)
    assert (loaded.sigma2, loaded.sigma_y2, loaded.alpha) == (1.0, 1.0, 0.25)


def test_model_q_block_is_the_matrix_file(tmp_path):
    X, Y, _ = jittered_instance(56)
    model, _, _ = em_fit(X, Y)
    save_model(model, tmp_path / "model.txt")
    save_matrix(model.Q, tmp_path / "matrix.txt")
    matrix = (tmp_path / "matrix.txt").read_text()
    assert (tmp_path / "model.txt").read_text().startswith(matrix)
    assert len(matrix.splitlines()) == model.dim + 1


def test_model_and_matrix_written_together_match_the_separate_writers(tmp_path):
    X, Y, _ = jittered_instance(57)
    model, _, _ = em_fit(X, Y)
    save_model(model, tmp_path / "model.txt")
    save_matrix(model.Q, tmp_path / "matrix.txt")
    save_model(model, tmp_path / "model2.txt", tmp_path / "matrix2.txt")
    for name in ("model", "matrix"):
        assert (tmp_path / f"{name}2.txt").read_bytes() == \
            (tmp_path / f"{name}.txt").read_bytes()


def test_model_without_a_matrix_path_writes_one_file(tmp_path):
    save_model(toy_model(d=4), tmp_path / "model.txt")
    assert [p.name for p in tmp_path.iterdir()] == ["model.txt"]


def test_model_and_matrix_are_written_one_row_at_a_time(tmp_path):
    # a d=300 map holds 90,000 values: converting or formatting them all at
    # once takes megabytes, one row of them a few kilobytes
    model = toy_model(d=300, seed=3)
    tracemalloc.start()
    try:
        save_model(model, tmp_path / "model.txt", tmp_path / "matrix.txt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024
    assert load_model(tmp_path / "model.txt").Q.shape == (300, 300)


# each malformed model file, and the start of its DataError message
BAD_MODEL_FILES = {
    "": "model file {} is malformed: ",
    "2\n1 0\n": "matrix in {} is not a finite 2 x 2 block",
    "2\n1 0\n0 1\nsigma2 x\n": "model file {} is malformed: only the lines ",
    "2\n1 0\n0 1\nsigma2 1\nmu_y 0\nsigma_y2 1\nalpha 0.5\n":
        "model file {} is malformed: mu_y takes 2 values",
    # read as a model, where AlignmentModel checks it
    "2\n1 0\n0 1\nsigma2 1\nmu_y nan 0\nsigma_y2 1\nalpha 0.5\n":
        "model file {} is malformed: mu_y must be a finite vector of length 2",
}


@pytest.mark.parametrize("text", BAD_MODEL_FILES)
def test_load_model_rejects_bad_file(tmp_path, text):
    path = tmp_path / "model.txt"
    path.write_text(text)
    with pytest.raises(DataError, match="^" + re.escape(BAD_MODEL_FILES[text].format(path))):
        load_model(path)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda lines: lines + ["beta 1"], id="extra"),
    pytest.param(lambda lines: lines[:2] + lines[3:], id="missing"),
    pytest.param(lambda lines: lines + lines[-1:], id="repeated"),
    pytest.param(lambda lines: [lines[1], lines[0], *lines[2:]], id="reordered"),
])
def test_a_model_file_holds_each_key_once_in_order(tmp_path, edit):
    path = tmp_path / "model.txt"
    save_model(toy_model(), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3] + edit(lines[3:])) + "\n")
    for load, what in ((load_model, "model file"), (load_matrix, "matrix file")):
        with pytest.raises(DataError, match=f"^{what} .* is malformed: only the lines "
                           "sigma2, mu_y, sigma_y2, alpha may follow the block"):
            load(path)


def test_a_model_file_loads_as_its_matrix(tmp_path):
    model = toy_model(d=3)
    save_model(model, tmp_path / "model.txt")
    assert np.array_equal(load_matrix(tmp_path / "model.txt"), model.Q)


def test_load_model_rejects_a_matrix_file(tmp_path):
    save_matrix(np.eye(2), tmp_path / "matrix.txt")
    with pytest.raises(DataError, match="is malformed: it holds only a matrix"):
        load_model(tmp_path / "matrix.txt")


def test_load_model_rejects_a_non_orthogonal_q(tmp_path):
    path = tmp_path / "model.txt"
    save_model(toy_model(), path)
    lines = path.read_text().splitlines()
    lines[1] = " ".join(str(2.0 * float(v)) for v in lines[1].split())
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="orthogonal"):
        load_model(path)


def test_responsibilities_tsv(tmp_path):
    # pair t is written under names[t], the source and the target token
    resp = Responsibilities(w=np.array([0.9, 0.2]))
    path = tmp_path / "resp.tsv"
    write_responsibilities_tsv(resp, [("dog", "cane"), ("dog", "dog")], path)
    lines = path.read_text().splitlines()
    assert lines == ["pair_index\tsrc_token\ttgt_token\tw\tlabel",
                     "0\tdog\tcane\t0.9\tAligned", "1\tdog\tdog\t0.2\tNoise"]


def test_responsibilities_tsv_needs_one_weight_per_pair(tmp_path):
    with pytest.raises(ValueError, match="1 responsibilities for 2 named pairs"):
        write_responsibilities_tsv(Responsibilities(w=np.array([0.9])),
                                   [("a", "a"), ("b", "b")], tmp_path / "resp.tsv")


@pytest.mark.parametrize("w,n_names", [([0.9, 0.1], 1), ([], 1), ([0.9], 0)])
def test_responsibilities_tsv_rejects_a_size_mismatch(tmp_path, w, n_names):
    path = tmp_path / "resp.tsv"
    with pytest.raises(ValueError, match=f"{len(w)} responsibilities for {n_names} named"):
        write_responsibilities_tsv(Responsibilities(w=np.array(w)),
                                   [("a", "b")] * n_names, path)
    assert not path.exists()  # checked before the file is opened


def test_fit_translation_rejects_an_unknown_method():
    with pytest.raises(ValueError) as exc:
        fit_translation("em", np.eye(2), np.eye(2))
    assert str(exc.value) == ("unknown method 'em'; expected one of "
                              "('op', 'sgd', 'em-hard', 'em-soft')")
