import io
import tracemalloc
import warnings

import numpy as np
import pytest

from noisy_align.align import (
    SgdConfig,
    alignment_error,
    load_matrix,
    procrustes,
    random_orthogonal,
    save_matrix,
    sgd_align,
    sgd_objective_grad,
    weighted_procrustes,
)
from noisy_align.io import DataError


def objective(Q, X, Y):
    return np.sum((Q @ X - Y) ** 2)


def ortho_residual(Q):
    return np.linalg.norm(Q.T @ Q - np.eye(Q.shape[0]))


def sgd_oracle(X, Y, lr, epochs, batch_size, seed):
    """Reference loop: one `sgd_objective_grad` step per shuffled batch."""
    d, n = X.shape
    rng = np.random.default_rng(seed)
    Q = np.eye(d)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start:start + batch_size]
            Q = Q - lr * sgd_objective_grad(Q, X[:, batch], Y[:, batch])
    return Q


def grid_search_2d(X, Y, step=1e-4):
    """Brute-force the 2D orthogonal group: rotations and reflections.

    objective = ||X||^2 + ||Y||^2 - 2 tr(Q^T M) with M = Y X^T; the trace
    is linear in (cos t, sin t) for each branch.
    """
    M = Y @ X.T
    const = np.sum(X * X) + np.sum(Y * Y)
    theta = np.arange(0.0, 2 * np.pi, step)
    c, s = np.cos(theta), np.sin(theta)
    rot = const - 2 * (c * (M[0, 0] + M[1, 1]) + s * (M[1, 0] - M[0, 1]))
    ref = const - 2 * (c * (M[0, 0] - M[1, 1]) + s * (M[0, 1] + M[1, 0]))
    return min(rot.min(), ref.min())


class TestProcrustes:
    def test_identity_case(self):
        X = np.random.default_rng(0).standard_normal((3, 10))
        Q = procrustes(X, X)
        assert ortho_residual(Q) <= 1e-8
        assert np.allclose(Q, np.eye(3), atol=1e-10)

    def test_planted_recovery(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((2, 10))
        R = random_orthogonal(2, seed=5)
        Q = procrustes(X, R @ X)
        assert np.linalg.norm(Q - R) < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_2d_grid_search_oracle(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((2, 12))
        Y = random_orthogonal(2, seed) @ X + 0.3 * rng.standard_normal((2, 12))
        Q = procrustes(X, Y)
        assert objective(Q, X, Y) <= grid_search_2d(X, Y) + 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            procrustes(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_non_finite_input(self):
        X = np.ones((2, 3))
        X[0, 0] = np.nan
        with pytest.raises(ValueError):
            procrustes(X, np.ones((2, 3)))

    def test_rank_deficient_warns(self):
        X = np.zeros((3, 5))
        X[0] = np.arange(5)
        with pytest.warns(RuntimeWarning, match="rank-deficient"):
            procrustes(X, X)

    # X or Y of rank below d makes Y X^T singular and the solution not
    # unique; y_rank 0 is a zero Y
    RANK_CASES = [
        (3, 5, 3, 3, False), (3, 3, 3, 3, False), (1, 1, 1, 1, False),
        (3, 10, 2, 2, True), (4, 40, 1, 1, True),  # rank-deficient, n >= d
        (5, 3, 3, 3, True), (5, 1, 1, 1, True),  # fewer pairs than dimensions
        (300, 299, 299, 299, True),
        (3, 10, 3, 2, True), (4, 40, 4, 1, True),  # full-rank X, rank-deficient Y
        (3, 10, 3, 0, True),
    ]

    # an id names Y's rank only where it differs from X's
    @pytest.mark.parametrize("d,n,rank,y_rank,warns", RANK_CASES, ids=[
        "-".join(map(str, (d, n, r) + ((yr,) if yr != r else ()) + (w,)))
        for d, n, r, yr, w in RANK_CASES])
    def test_warns_exactly_when_rank_below_d(self, d, n, rank, y_rank, warns):
        rng = np.random.default_rng(d + n)
        X = rng.standard_normal((d, rank)) @ rng.standard_normal((rank, n))
        Y = rng.standard_normal((d, y_rank)) @ rng.standard_normal((y_rank, n))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            Q = procrustes(X, Y)
        assert any("rank-deficient" in str(w.message) for w in caught) == warns
        assert ortho_residual(Q) <= 1e-8

    # the 1e-12 cut-off applies to Y X^T, not to X: with Y = Q X the
    # singular values of Y X^T are those of X squared, so a full-rank X of
    # condition number 1e7 warns and one of 1e5 does not
    @pytest.mark.parametrize("cond,warns", [(1e5, False), (1e7, True)])
    def test_cut_off_applies_to_the_product(self, cond, warns):
        d, n = 4, 20
        V = np.linalg.qr(np.random.default_rng(8).standard_normal((n, d)))[0]
        X = random_orthogonal(d, 1) @ np.diag(np.geomspace(1.0, 1.0 / cond, d)) @ V.T
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            Q = procrustes(X, random_orthogonal(d, 2) @ X)
        assert any("rank-deficient" in str(w.message) for w in caught) == warns
        assert ortho_residual(Q) <= 1e-8

    @pytest.mark.parametrize("d,n", [(2, 5), (5, 40), (50, 500), (300, 2000)])
    def test_orthogonality_residual(self, d, n):
        rng = np.random.default_rng(d)
        Q = procrustes(rng.standard_normal((d, n)), rng.standard_normal((d, n)))
        assert ortho_residual(Q) <= 1e-8

    @pytest.mark.parametrize("seed", range(10))
    def test_left_rotation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((4, 30))
        Y = rng.standard_normal((4, 30))
        R = random_orthogonal(4, seed + 100)
        Q1 = procrustes(X, R @ Y)
        Q2 = R @ procrustes(X, Y)
        assert np.linalg.norm(Q1 - Q2) < 1e-8

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale,what", [(1e200, "Y X\\^T"),
                                            (1e308, "Y X\\^T")])
    def test_overflowing_product_is_a_data_error(self, scale, what):
        # the SVD of a matrix holding inf may never return
        X = scale * np.sign(np.random.default_rng(5).standard_normal((3, 8)))
        with pytest.raises(DataError, match=what + " overflows float64"):
            procrustes(X, X)


class TestWeightedProcrustes:
    def test_all_ones_reduces_to_plain(self):
        rng = np.random.default_rng(2)
        X, Y = rng.standard_normal((3, 20)), rng.standard_normal((3, 20))
        Qw = weighted_procrustes(X, Y, np.ones(20))
        assert np.allclose(Qw, procrustes(X, Y), atol=1e-12)

    def test_indicator_reduces_to_subset(self):
        rng = np.random.default_rng(3)
        X, Y = rng.standard_normal((3, 20)), rng.standard_normal((3, 20))
        w = np.zeros(20)
        w[:8] = 1.0
        Qw = weighted_procrustes(X, Y, w)
        Qs = procrustes(X[:, :8], Y[:, :8])
        assert np.allclose(Qw, Qs, atol=1e-12)

    def test_beats_random_orthogonal_probes(self):
        rng = np.random.default_rng(4)
        X, Y = rng.standard_normal((3, 20)), rng.standard_normal((3, 20))
        w = rng.random(20)
        Q = weighted_procrustes(X, Y, w)
        best = np.sum(w * np.sum((Q @ X - Y) ** 2, axis=0))
        for seed in range(1000):
            R = random_orthogonal(3, seed)
            assert best <= np.sum(w * np.sum((R @ X - Y) ** 2, axis=0)) + 1e-9

    @pytest.mark.parametrize("w", [[-0.1, 0.5, 0.5], [0.5, 1.5, 0.5],
                                   [np.nan, 0.5, 0.5]])
    def test_weights_outside_the_unit_interval_are_rejected(self, w):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            weighted_procrustes(np.ones((2, 3)), np.ones((2, 3)), np.array(w))

    def test_all_zero_weights(self):
        with pytest.raises(ValueError, match="zero"):
            weighted_procrustes(np.ones((2, 3)), np.ones((2, 3)), np.zeros(3))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_product_is_a_data_error(self):
        X = 1e200 * np.random.default_rng(6).standard_normal((3, 8))
        with pytest.raises(DataError, match="Y diag\\(w\\) X\\^T overflows float64"):
            weighted_procrustes(X, X, np.full(8, 0.5))


class TestSgdAlign:
    @pytest.mark.parametrize("field,value", [
        ("learning_rate", 0.0), ("learning_rate", np.nan), ("learning_rate", np.inf),
        ("epochs", 0), ("epochs", 1.5), ("batch_size", 0), ("batch_size", 2.5),
        ("seed", -1), ("seed", 1.5),
    ])
    def test_config_rejects_a_value_the_cli_rejects(self, field, value):
        with pytest.raises(ValueError, match=field):
            SgdConfig(**{field: value})

    def stable_cfg(self, X, epochs=2000):
        lam = np.linalg.norm(X @ X.T, ord=2)
        return SgdConfig(learning_rate=0.4 / lam, epochs=epochs,
                         batch_size=X.shape[1], seed=0)

    def test_planted_recovery(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((3, 30))
        R = random_orthogonal(3, 9)
        Q = sgd_align(X, R @ X, self.stable_cfg(X))
        assert Q.dtype == np.float64 and Q.shape == (3, 3)
        assert np.linalg.norm(Q - R) < 1e-3

    @pytest.mark.parametrize("seed", range(5))
    def test_normal_equations_oracle(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 11))
        X = rng.standard_normal((d, d + 20))
        Y = rng.standard_normal((d, d + 20))
        Q = sgd_align(X, Y, self.stable_cfg(X, epochs=5000))
        Q_star = Y @ X.T @ np.linalg.inv(X @ X.T)
        assert np.linalg.norm(Q - Q_star) < 1e-3

    def test_divergence_names_learning_rate(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((3, 50))
        Y = rng.standard_normal((3, 50))
        cfg = SgdConfig(learning_rate=10.0, epochs=200, batch_size=50, seed=0)
        with pytest.raises(DataError, match="10.0"):
            sgd_align(X, Y, cfg)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x_scale,y_scale,batch_size,what", [
        (1e200, 1.0, None, "X X\\^T"), (1.5e308, 1.0, 2, "X X\\^T"),
        (1e100, 1e250, None, "Y X\\^T"),
    ])
    def test_overflowing_gram_is_a_data_error(self, x_scale, y_scale, batch_size, what):
        # the default step takes a norm (an SVD) of X X^T, which must not
        # see inf, and an overflowed Y X^T is not divergence
        sign = np.sign(np.random.default_rng(8).standard_normal((3, 8)))
        cfg = SgdConfig(batch_size=batch_size)
        with pytest.raises(DataError, match=what + " overflows float64"):
            sgd_align(x_scale * sign, y_scale * sign, cfg)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(7)
        X, Y = rng.standard_normal((3, 40)), rng.standard_normal((3, 40))
        cfg = SgdConfig(learning_rate=1e-3, epochs=10, batch_size=8, seed=3)
        assert np.array_equal(sgd_align(X, Y, cfg), sgd_align(X, Y, cfg))

    @pytest.mark.parametrize("d,n,batch_size,seed", [
        (3, 40, 8, 3), (5, 37, 10, 0), (4, 12, 1, 1), (8, 30, 29, 2),
    ])
    def test_minibatch_matches_oracle_bitwise(self, d, n, batch_size, seed):
        rng = np.random.default_rng(seed)
        X, Y = rng.standard_normal((d, n)), rng.standard_normal((d, n))
        lr = 0.4 / np.linalg.norm(X @ X.T, ord=2)
        cfg = SgdConfig(epochs=7, batch_size=batch_size, seed=seed)
        assert np.array_equal(sgd_align(X, Y, cfg),
                              sgd_oracle(X, Y, lr, 7, batch_size, seed))

    @pytest.mark.parametrize("batch_size", [None, 40, 100])
    def test_full_batch_ignores_seed(self, batch_size):
        rng = np.random.default_rng(8)
        X, Y = rng.standard_normal((3, 40)), rng.standard_normal((3, 40))
        fits = [sgd_align(X, Y, SgdConfig(epochs=20, batch_size=batch_size, seed=seed))
                for seed in (0, 1, 2)]
        assert all(np.array_equal(fits[0], Q) for Q in fits[1:])

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        X, Y = rng.standard_normal((3, 7)), rng.standard_normal((3, 7))
        Q = rng.standard_normal((3, 3))
        grad = sgd_objective_grad(Q, X, Y)
        h = 1e-6
        for i in range(3):
            for j in range(3):
                Qp, Qm = Q.copy(), Q.copy()
                Qp[i, j] += h
                Qm[i, j] -= h
                fd = (objective(Qp, X, Y) - objective(Qm, X, Y)) / (2 * h)
                assert abs(grad[i, j] - fd) <= 1e-4 * max(1.0, abs(fd))


class TestRandomOrthogonal:
    @pytest.mark.parametrize("d,seed", [(1, 0), (2, 1), (5, 2), (50, 3), (300, 4)])
    def test_orthogonality(self, d, seed):
        Q = random_orthogonal(d, seed)
        assert Q.dtype == np.float64 and Q.shape == (d, d)
        assert ortho_residual(Q) < 1e-10

    def test_d1_is_sign(self):
        values = {float(random_orthogonal(1, s)[0, 0]) for s in range(20)}
        assert values <= {1.0, -1.0}
        assert len(values) == 2

    def test_monte_carlo_symmetry(self):
        # distribution invariance implies E[Q[0,0]] = 0
        mean = np.mean([random_orthogonal(3, s)[0, 0] for s in range(10_000)])
        assert abs(mean) < 0.05

    def test_deterministic(self):
        assert np.array_equal(random_orthogonal(4, 11), random_orthogonal(4, 11))


class TestAlignmentError:
    def test_exact_map_zero_error(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((3, 10))
        R = random_orthogonal(3, 0)
        assert alignment_error(R, X, R @ X) == 0.0

    def test_hand_computed(self):
        X = np.array([[1.0], [0.0]])
        Y = np.array([[0.0], [1.0]])
        assert alignment_error(np.eye(2), X, Y) == pytest.approx(2.0)

    def test_naive_loop_oracle(self):
        rng = np.random.default_rng(9)
        Q = rng.standard_normal((4, 4))
        X, Y = rng.standard_normal((4, 25)), rng.standard_normal((4, 25))
        naive = 0.0
        for t in range(25):
            naive += float(np.sum((Q @ X[:, t] - Y[:, t]) ** 2))
        assert alignment_error(Q, X, Y) == pytest.approx(naive, abs=1e-12)

    def test_additive_over_disjoint_masks(self):
        rng = np.random.default_rng(10)
        Q = rng.standard_normal((3, 3))
        X, Y = rng.standard_normal((3, 12)), rng.standard_normal((3, 12))
        mask_a = np.zeros(12, dtype=bool)
        mask_a[:5] = True
        total = alignment_error(Q, X, Y, mask_a) + alignment_error(Q, X, Y, ~mask_a)
        assert total == pytest.approx(alignment_error(Q, X, Y), rel=1e-12)

    @staticmethod
    def large_pairs():
        rng = np.random.default_rng(11)
        return (random_orthogonal(100, 12), rng.standard_normal((100, 3000)),
                rng.standard_normal((100, 3000)), rng.random(3000) < 0.5)

    @pytest.mark.parametrize("masked", [False, True])
    def test_the_square_has_the_bits_of_the_product(self, masked):
        Q, X, Y, mask = self.large_pairs()
        resid = (Q @ X - Y)[:, mask if masked else slice(None)]
        err = alignment_error(Q, X, Y, mask if masked else None)
        assert err == float(np.sum(resid * resid))

    def test_holds_one_residual_matrix(self):
        # Q X - Y is formed and squared in place: its square would add X.nbytes
        Q, X, Y, _ = self.large_pairs()
        tracemalloc.start()
        try:
            alignment_error(Q, X, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * X.nbytes

    def test_empty_mask(self):
        with pytest.raises(ValueError, match="empty"):
            alignment_error(np.eye(2), np.ones((2, 3)), np.ones((2, 3)),
                            mask=np.zeros(3, dtype=bool))

    # the sum of squares overflows; Q @ X overflows; Q @ X is inf - inf
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("Q", [1e306 * np.eye(2),
                                   np.array([[1e308, 1e308], [0.0, 1.0]]),
                                   np.array([[1e308, -1e308], [0.0, 1.0]])],
                             ids=["sum", "product", "nan"])
    def test_overflow_is_a_data_error_without_warning(self, Q):
        X = np.array([[1e10, 1.0], [1e10, 2.0]])
        with pytest.raises(DataError, match="overflows"):
            alignment_error(Q, X, np.ones((2, 2)))


# every solver checks its pairs alike: the shapes first, then the layout,
# then the values
PAIR_SOLVERS = {
    "procrustes": procrustes,
    "weighted_procrustes": lambda X, Y: weighted_procrustes(X, Y, np.ones(np.shape(X)[-1])),
    "sgd_align": sgd_align,
    "alignment_error": lambda X, Y: alignment_error(np.eye(2), X, Y),
}
BAD_PAIRS = {
    "mismatch": (np.ones((2, 3)), np.ones((2, 4)), "shape mismatch: X (2, 3) vs Y (2, 4)"),
    "n=0": (np.ones((2, 0)), np.ones((2, 0)),
            "expected d x n matrices with n >= 1, got (2, 0)"),
    "1-D": ([np.nan, 1.0], [1.0, 1.0], "expected d x n matrices with n >= 1, got (2,)"),
    "nan": (np.ones((2, 3)), np.full((2, 3), np.nan), "non-finite entries in input matrices"),
}
REJECTED = [
    *(pytest.param(lambda f=f, X=X, Y=Y: f(X, Y), message, id=f"{name}-{case}")
      for name, f in PAIR_SOLVERS.items() for case, (X, Y, message) in BAD_PAIRS.items()),
    pytest.param(lambda: weighted_procrustes(np.eye(2), np.eye(2), np.ones(3)),
                 "weights shape (3,) does not match n=2", id="weights-length"),
    pytest.param(lambda: weighted_procrustes(np.eye(2), np.eye(2), np.ones((1, 2))),
                 "weights shape (1, 2) does not match n=2", id="weights-2-D"),
    *(pytest.param(lambda d=d: random_orthogonal(d, 0), "dimension must be positive",
                   id=f"random-orthogonal-{d}") for d in (0, -1)),
]


@pytest.mark.parametrize("call,message", REJECTED)
def test_rejected_input_is_a_value_error(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_matrix_save_load_round_trip(tmp_path):
    Q = random_orthogonal(5, 42)
    path = tmp_path / "matrix.txt"
    save_matrix(Q, path)
    loaded = load_matrix(path)
    assert loaded.dtype == np.float64
    assert np.array_equal(loaded, Q)


def test_load_matrix_reads_no_byte_order_mark(tmp_path):
    Q = random_orthogonal(5, 42)
    path = tmp_path / "matrix.txt"
    save_matrix(Q, path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert np.array_equal(load_matrix(path), Q)


@pytest.mark.parametrize("Q", [random_orthogonal(7, 43),
                               np.array([[-0.0, 5e-324], [1e308, -1.0 / 3.0]])],
                         ids=["orthogonal", "edge-values"])
def test_save_matrix_writes_the_bytes_of_savetxt(tmp_path, Q):
    # np.savetxt is the reference: the formatting is its own, row by row
    save_matrix(Q, tmp_path / "matrix.txt")
    ref = io.StringIO()
    np.savetxt(ref, Q, fmt="%.17g")
    assert (tmp_path / "matrix.txt").read_text() == f"{len(Q)}\n" + ref.getvalue()


def test_load_matrix_keeps_a_non_orthogonal_map(tmp_path):
    # an SGD map is not orthogonal; only an AlignmentModel requires it
    Q = np.array([[2.0, 0.5], [0.0, 1.0]])
    save_matrix(Q, tmp_path / "matrix.txt")
    assert np.array_equal(load_matrix(tmp_path / "matrix.txt"), Q)


@pytest.mark.parametrize("text", ["", "\n", "2\n1 0\n", "2\n1 0\n0 x\n",
                                  "2\n1 0\n0 nan\n", "0\n", "x\n",
                                  "2 7\n1 0\n0 1\n", "2\n1 0\n0 1\nnot a matrix row\n"])
def test_load_matrix_rejects_bad_file(tmp_path, text):
    path = tmp_path / "matrix.txt"
    path.write_text(text)
    with pytest.raises(DataError):
        load_matrix(path)

