import math

import mpmath
import numpy as np
import pytest

from noisy_align import mixture
from noisy_align.align import alignment_error, random_orthogonal, save_matrix
from noisy_align.experiments import fit_translation
from noisy_align.io import DataError, Lexicon
from noisy_align.mixture import (
    VAR_FLOOR,
    AlignmentModel,
    EmConfig,
    Responsibilities,
    _aligned_residuals,
    _initialize,
    _noise_residuals,
    _posterior_weights,
    em_fit,
    initialize,
    load_model,
    log_gaussian_iso,
    log_likelihood,
    posterior,
    sample_generative,
    save_model,
    write_responsibilities_tsv,
)
from noisy_align.synthetic import make_noisy_problem


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
        assert posterior(model, x, y) == pytest.approx(0.5, abs=1e-12)

    def test_alpha_one(self):
        model = toy_model(alpha=1.0)
        assert posterior(model, np.zeros(2), 1e6 * np.ones(2)) == 1.0

    def test_alpha_zero(self):
        model = toy_model(alpha=0.0)
        assert posterior(model, np.zeros(2), np.zeros(2)) == 0.0

    def test_logistic_of_log_density_gap(self):
        # gap of 2 nats between components at alpha=0.5
        d = 1
        model = AlignmentModel(
            Q=random_orthogonal(1, 0), sigma2=1.0, mu_y=np.zeros(1),
            sigma_y2=1.0, alpha=0.5)
        sign = model.Q.Q[0, 0]
        # ||Qx-y||^2/2 - ||y-mu||^2/2 = -2  =>  logN1 - logN0 = 2
        y = np.array([2.0])
        x = np.array([(y[0] - 0.0) * sign])  # aligned residual 0
        # noise residual: ||y||^2/2 = 2 nats
        assert posterior(model, x, y) == pytest.approx(1 / (1 + math.exp(-2)),
                                                       abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_threshold_consistent_with_density_comparison(self, seed):
        rng = np.random.default_rng(seed)
        model = toy_model(d=3, alpha=0.5, sigma2=0.7, sigma_y2=1.3, seed=seed)
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        la = log_gaussian_iso(y, model.Q.Q @ x, model.sigma2)
        ln = log_gaussian_iso(y, model.mu_y, model.sigma_y2)
        assert (posterior(model, x, y) > 0.5) == (la > ln)


class TestLogLikelihood:
    def test_equal_components_single_pair(self):
        model = toy_model(d=2, alpha=0.5, seed=1)
        x = np.zeros(2)
        y = (model.Q.Q @ x + model.mu_y) / 2 + np.array([0.0, 1.5])
        p = log_gaussian_iso(y, model.Q.Q @ x, 1.0)
        assert log_likelihood(model, x[:, None], y[:, None]) == pytest.approx(p)

    def test_alpha_one_exact_fit(self):
        d, n = 4, 7
        Q = random_orthogonal(d, 2)
        X = np.random.default_rng(2).standard_normal((d, n))
        model = AlignmentModel(Q=Q, sigma2=0.3, mu_y=np.zeros(d),
                               sigma_y2=1.0, alpha=1.0)
        want = n * (-0.5 * d * math.log(2 * math.pi * 0.3))
        assert log_likelihood(model, X, Q.Q @ X) == pytest.approx(want)

    def test_extended_precision_oracle(self):
        rng = np.random.default_rng(4)
        d, n = 5, 5
        model = toy_model(d=d, alpha=0.3, sigma2=0.5, sigma_y2=2.0, seed=4)
        X, Y = rng.standard_normal((d, n)), rng.standard_normal((d, n))
        with mpmath.workdps(60):
            total = mpmath.mpf(0)
            for t in range(n):
                la = mp_log_gaussian(Y[:, t], model.Q.Q @ X[:, t], 0.5)
                ln = mp_log_gaussian(Y[:, t], model.mu_y, 2.0)
                f = mpmath.mpf("0.3") * mpmath.exp(la) + mpmath.mpf("0.7") * mpmath.exp(ln)
                total += mpmath.log(f)
            want = float(total)
        assert log_likelihood(model, X, Y) == pytest.approx(want, abs=1e-9)


class TestInitialize:
    def test_perfect_fit_hits_variance_floor(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((3, 10))
        Q = random_orthogonal(3, 5)
        model = initialize(X, Q.Q @ X)
        assert model.sigma2 == VAR_FLOOR

    def test_constant_targets_floor_noise_variance(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((3, 10))
        Y = np.ones((3, 10))
        model = initialize(X, Y)
        assert model.sigma_y2 == VAR_FLOOR

    def test_formula_recompute_oracle(self):
        rng = np.random.default_rng(7)
        d, n = 50, 1000
        X = rng.standard_normal((d, n))
        Y = rng.standard_normal((d, n))
        model = initialize(X, Y)
        assert model.alpha == 0.5
        assert np.allclose(model.mu_y, Y.mean(axis=1), atol=1e-12)
        sigma2 = sum(np.sum((model.Q.Q @ X[:, t] - Y[:, t]) ** 2)
                     for t in range(n)) / (n * d)
        sigma_y2 = sum(np.sum((Y[:, t] - Y.mean(axis=1)) ** 2)
                       for t in range(n)) / (n * d)
        assert model.sigma2 == pytest.approx(sigma2, rel=1e-12)
        assert model.sigma_y2 == pytest.approx(sigma_y2, rel=1e-12)

    def test_sigma2_shares_alignment_error_path(self):
        rng = np.random.default_rng(8)
        X, Y = rng.standard_normal((4, 30)), rng.standard_normal((4, 30))
        model = initialize(X, Y)
        assert model.sigma2 == alignment_error(model.Q, X, Y) / (30 * 4)

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            initialize(np.ones((3, 1)), np.ones((3, 1)))

    def test_residuals_for_the_first_e_step_are_bit_identical(self):
        rng = np.random.default_rng(9)
        X, Y = rng.standard_normal((6, 40)), rng.standard_normal((6, 40))
        model, r, r0 = _initialize(X, Y)
        assert np.array_equal(r, _aligned_residuals(model.Q, X, Y))
        assert np.array_equal(r0, _noise_residuals(model.mu_y, Y))
        public = initialize(X, Y)
        assert np.array_equal(public.Q.Q, model.Q.Q) and public.sigma2 == model.sigma2

    @pytest.mark.parametrize("mode", ["hard", "soft"])
    def test_em_fit_computes_each_residual_once(self, mode, monkeypatch):
        # the initial model's residuals reach the first E-step, and each
        # M-step's residuals the next one: no E-step recomputes Q @ X or
        # the noise residual
        handed = []
        densities = mixture._component_logdensities

        def spy(model, X, Y, r_aligned=None, r_noise=None):
            handed.append(r_aligned is not None and r_noise is not None)
            return densities(model, X, Y, r_aligned, r_noise)

        monkeypatch.setattr(mixture, "_component_logdensities", spy)
        X, Y, _ = jittered_instance(12)
        _, _, trace = em_fit(X, Y, EmConfig(mode=mode))
        assert trace.iterations >= 2 and not trace.degenerate_iters
        assert handed == [True] * (trace.iterations + 1)


def jittered_instance(seed, d=None, n=None, p=None, jitter=0.05):
    rng = np.random.default_rng(seed)
    d = d or int(rng.integers(2, 20))
    n = n or int(rng.integers(20, 200))
    p = p if p is not None else float(rng.uniform(0.05, 0.4))
    prob = make_noisy_problem(n, d, p, seed)
    Y = prob.Y + jitter * rng.standard_normal(prob.Y.shape)
    return prob.X, Y, prob


class TestEmFit:
    def test_noise_free_converges_to_all_aligned(self):
        prob = make_noisy_problem(n=1000, d=50, p=0.0, seed=0)
        model, resp, trace = em_fit(prob.X, prob.Y)
        assert model.alpha == 1.0
        assert resp.h.all()
        assert np.linalg.norm(model.Q.Q - prob.Q_gold.Q) < 1e-6

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
        out1 = em_fit(X, Y, EmConfig(mode="soft"))
        out2 = em_fit(X, Y, EmConfig(mode="soft"))
        assert out1[2].steps == out2[2].steps
        assert np.array_equal(out1[0].Q.Q, out2[0].Q.Q)
        assert np.array_equal(out1[1].w, out2[1].w)

    @pytest.mark.parametrize("mode", ["hard", "soft"])
    def test_objective_monotone(self, mode):
        for seed in range(10):
            X, Y, _ = jittered_instance(seed + 50)
            _, _, trace = em_fit(X, Y, EmConfig(mode=mode))
            objs = [obj for _, obj, _ in trace.steps]
            assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))

    def test_hard_trace_alpha_equals_n1_over_n(self):
        X, Y, prob = jittered_instance(21)
        n = X.shape[1]
        _, _, trace = em_fit(X, Y, EmConfig(mode="hard"))
        for alpha, _, n1 in trace.steps:
            assert alpha == n1 / n

    def test_responsibility_invariants(self):
        X, Y, _ = jittered_instance(33)
        _, resp, _ = em_fit(X, Y, EmConfig(mode="soft"))
        assert np.all((resp.w >= 0) & (resp.w <= 1))
        assert resp.n1 == int(resp.h.sum())
        assert np.array_equal(resp.h, resp.w > 0.5)

    @pytest.mark.parametrize("mode", ["hard", "soft"])
    @pytest.mark.parametrize("max_iters", [1, 2, 100])
    def test_responsibilities_are_the_returned_models_e_step(self, mode, max_iters):
        prob = make_noisy_problem(n=500, d=20, p=0.3, seed=1)
        model, resp, _ = em_fit(prob.X, prob.Y, EmConfig(max_iters=max_iters, mode=mode))
        assert np.array_equal(resp.w, _posterior_weights(model, prob.X, prob.Y))
        assert np.array_equal(resp.h, resp.w > 0.5)

    def test_degenerate_all_aligned_is_frozen_not_fatal(self):
        prob = make_noisy_problem(n=50, d=5, p=0.0, seed=9)
        model, resp, trace = em_fit(prob.X, prob.Y)
        assert trace.degenerate_iters  # noise component went empty
        assert model.alpha == 1.0

    def test_degenerate_all_noise_keeps_q(self):
        # Y far from every mapped x: the first hard E-step labels all pairs
        # noise, so the M-step keeps Q and passes no residual on
        rng = np.random.default_rng(10)
        X = rng.standard_normal((5, 50))
        Y = 100.0 + 0.1 * rng.standard_normal((5, 50))
        model, resp, trace = em_fit(X, Y)
        assert trace.degenerate_iters == [0, 1] and trace.converged
        assert model.alpha == 0.0 and resp.n1 == 0
        assert np.array_equal(model.Q.Q, initialize(X, Y).Q.Q)

    def test_max_iters_respected(self):
        X, Y, _ = jittered_instance(44)
        _, _, trace = em_fit(X, Y, EmConfig(epsilon=1e-300, max_iters=3))
        assert trace.iterations <= 3


def test_method_string_sets_mode_and_keeps_other_settings():
    X, Y, _ = jittered_instance(44)
    cfg = EmConfig(mode="hard", max_iters=2, epsilon=1e-300)
    _, _, resp, trace = fit_translation("em-soft", X, Y, em_cfg=cfg)
    _, soft_resp, soft_trace = em_fit(X, Y, EmConfig(mode="soft", max_iters=2,
                                                     epsilon=1e-300))
    _, _, hard_trace = em_fit(X, Y, cfg)
    assert trace.iterations == 2 and not trace.converged
    assert trace.steps == soft_trace.steps != hard_trace.steps
    assert np.array_equal(resp.w, soft_resp.w)
    assert cfg.mode == "hard"  # the caller's config is not modified


class TestSampleGenerative:
    def test_alpha_one_near_exact(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((3, 20))
        model = AlignmentModel(Q=random_orthogonal(3, 1), sigma2=VAR_FLOOR,
                               mu_y=np.zeros(3), sigma_y2=1.0, alpha=1.0)
        Y, z = sample_generative(model, X, seed=0)
        assert z.all()
        assert np.allclose(Y, model.Q.Q @ X, atol=1e-4)

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
    assert np.array_equal(loaded.Q.Q, model.Q.Q)
    assert loaded.sigma2 == model.sigma2
    assert np.array_equal(loaded.mu_y, model.mu_y)
    assert loaded.sigma_y2 == model.sigma_y2
    assert loaded.alpha == model.alpha


def test_model_q_block_is_the_matrix_file(tmp_path):
    X, Y, _ = jittered_instance(56)
    model, _, _ = em_fit(X, Y)
    save_model(model, tmp_path / "model.txt")
    save_matrix(model.Q, tmp_path / "matrix.txt")
    matrix = (tmp_path / "matrix.txt").read_text()
    assert (tmp_path / "model.txt").read_text().startswith(matrix)
    assert len(matrix.splitlines()) == model.dim + 1


@pytest.mark.parametrize("text", ["", "2\n1 0\n", "2\n1 0\n0 1\nsigma2 x\n",
                                  "2\n1 0\n0 1\nsigma2 1\nmu_y 0\n"
                                  "sigma_y2 1\nalpha 0.5\n"])
def test_load_model_rejects_bad_file(tmp_path, text):
    path = tmp_path / "model.txt"
    path.write_text(text)
    with pytest.raises(DataError):
        load_model(path)


def test_responsibilities_tsv(tmp_path):
    resp = Responsibilities(w=np.array([0.9, 0.2]), h=np.array([True, False]), n1=1)
    lex = Lexicon(pairs=[(0, 0), (0, 1)], src_tokens=["dog", "dog"],
                  tgt_tokens=["cane", "dog"])
    path = tmp_path / "resp.tsv"
    write_responsibilities_tsv(resp, lex, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "pair_index\tsrc_token\ttgt_token\tw\tlabel"
    assert lines[1].endswith("Aligned") and "dog\tcane" in lines[1]
    assert lines[2].endswith("Noise")
