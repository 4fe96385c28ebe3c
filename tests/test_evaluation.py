import json
import tracemalloc
import warnings
from argparse import Namespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisy_align import cli, evaluation
from noisy_align.align import random_orthogonal
from noisy_align.evaluation import (
    build_index,
    nearest_neighbor,
    precision_at_1,
    rank_semantic_shift,
)
from noisy_align.io import EmbeddingSet, Lexicon, build_identity_lexicon, gather_pairs
from noisy_align.mixture import Responsibilities
from test_io import full_square_norms, traced_peak


def make_set(tokens, vectors):
    vectors = np.asarray(vectors, dtype=float)
    return EmbeddingSet(tokens=list(tokens), vectors=vectors)


# a 45-degree rotation maps [a, a] to [0, sqrt(2) a], which overflows for a = 1.5e308
ROT45 = np.sqrt(0.5) * np.array([[1.0, -1.0], [1.0, 1.0]])
HUGE = 1.5e308


def random_set(n_tokens, d, seed, prefix="w"):
    rng = np.random.default_rng(seed)
    return make_set([f"{prefix}{i}" for i in range(n_tokens)],
                    rng.standard_normal((d, n_tokens)))


def identity_pairs(src, tgt):
    """`rank_semantic_shift`'s tokens, X and Y for the tokens both sets share,
    gathered as `diachronic` gathers them."""
    lex = build_identity_lexicon(src, tgt)
    return [src.tokens[i] for i, _ in lex.pairs], *gather_pairs(lex, src, tgt)


def oracle_scores(index, q):
    """Per-query brute-force scan: the cosine of every target, -inf if excluded.

    Elementwise products and column sums do the same arithmetic for every
    column, so identical targets get identical scores.
    """
    scores = np.sum(index.unit * (q / np.linalg.norm(q))[:, None], axis=0)
    scores[index.excluded] = -np.inf
    return scores


def oracle_top_k(index, q, k):
    """Indices of the k best non-excluded targets; ties toward the lower index."""
    scores = oracle_scores(index, q)
    order = np.argsort(-scores, kind="stable")[:k]
    return [int(i) for i in order if np.isfinite(scores[i])]


class TestNearestNeighbor:
    def test_exact_column_is_top(self):
        emb = random_set(8, 4, seed=0)
        index = build_index(emb)
        out = nearest_neighbor(index, emb.vectors[:, 3], k=2)
        assert out[0] == ("w3", pytest.approx(1.0))

    def test_tie_break_by_index_order(self):
        emb = make_set(["a", "b", "c"],
                       np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]))
        out = nearest_neighbor(build_index(emb), np.array([0.0, 1.0]), k=3)
        assert [t for t, _ in out] == ["a", "b", "c"]
        assert all(s == pytest.approx(0.0) for _, s in out)
        # a tie across the k-th place also keeps the lower indices
        for k in (1, 2):
            out = nearest_neighbor(build_index(emb), np.array([0.0, 1.0]), k=k)
            assert [t for t, _ in out] == ["a", "b"][:k]

    @pytest.mark.parametrize("seed", range(10))
    def test_full_sort_oracle(self, seed):
        rng = np.random.default_rng(seed)
        emb = random_set(30, 5, seed=seed)
        q = rng.standard_normal(5)
        got = nearest_neighbor(build_index(emb), q, k=30)
        sims = emb.vectors.T @ (q / np.linalg.norm(q))
        sims = sims / np.linalg.norm(emb.vectors, axis=0)
        order = sorted(range(30), key=lambda i: (-sims[i], i))
        assert [t for t, _ in got] == [emb.tokens[i] for i in order]

    def test_zero_query_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            nearest_neighbor(build_index(random_set(3, 2, 0)), np.zeros(2), k=1)

    def test_zero_target_column_excluded(self):
        emb = make_set(["zero", "x"], np.array([[0.0, 1.0], [0.0, 0.0]]))
        index = build_index(emb)
        assert index.excluded == [0]
        out = nearest_neighbor(index, np.array([1.0, 0.0]), k=2)
        assert [t for t, _ in out] == ["x"]  # k exceeds the usable vocabulary

    def test_tiny_and_huge_columns_are_retrievable(self):
        # squared, their entries under- and overflow
        emb = make_set(["tiny", "x", "huge"],
                       np.array([[1e-170, 1.0, 0.0], [0.0, 1.0, 1e200]]))
        index = build_index(emb)
        assert index.excluded == []
        assert nearest_neighbor(index, np.array([1.0, 0.0]), k=1) == [("tiny", 1.0)]
        # a tiny query is no zero query
        assert nearest_neighbor(index, np.array([0.0, 1e-170]), k=1) == [("huge", 1.0)]

    def test_non_finite_query_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            nearest_neighbor(build_index(random_set(3, 2, 0)),
                             np.array([np.nan, 1.0]), k=1)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6),
       V=st.integers(1, 40), rows=st.integers(2, 5), blocks=st.integers(1, 4),
       ragged=st.integers(1, 4), n_dup=st.integers(0, 6),
       n_zero=st.integers(0, 3), k=st.sampled_from([1, 3]))
def test_kernel_matches_per_query_oracle(seed, d, V, rows, blocks, ragged,
                                         n_dup, n_zero, k):
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((d, V))
    for _ in range(n_dup):
        a, b = rng.integers(V, size=2)
        vectors[:, b] = vectors[:, a]
    vectors[:, rng.integers(V, size=n_zero)] = 0.0
    index = build_index(make_set([f"t{i}" for i in range(V)], vectors))
    X = rng.standard_normal((d, 12))
    Q = random_orthogonal(d, seed % 1000)
    # several blocks of `rows` queries and a shorter last block
    n = rows * blocks + 1 + ragged % (rows - 1)
    cols = rng.integers(12, size=n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluation, "BLOCK_ROWS", rows)
        top, scores, zero = evaluation._search(index, Q, X, cols, k)
    assert not zero.any()
    for row, c in enumerate(cols):
        q = Q @ X[:, c]
        want_scores = oracle_scores(index, q)
        got = [int(i) for i in top[row] if i >= 0]
        # identical targets always tie toward the lower index
        assert got == oracle_top_k(index, q, k)
        assert scores[row, :len(got)] == pytest.approx(want_scores[got], abs=1e-9)
        assert (scores[row, len(got):] == -np.inf).all()


class TestSearchKernel:
    def test_blocks_hold_block_rows_queries_at_any_vocabulary_size(self, monkeypatch):
        # 150 queries run in blocks of 64, 64 and a short last one of 22,
        # whatever the number of targets
        assert evaluation.BLOCK_ROWS == 64
        src = random_set(150, 8, seed=26)
        Q = random_orthogonal(8, 28)
        blocks = []
        real_mapped = evaluation._mapped

        def mapped(Qm, M):
            blocks.append(M.shape[1])
            return real_mapped(Qm, M)

        monkeypatch.setattr(evaluation, "_mapped", mapped)
        for V in (1000, 5000):
            index = build_index(random_set(V, 8, seed=27, prefix="t"))
            blocks.clear()
            top, _, _ = evaluation._search(index, Q, src.vectors, np.arange(150), 1)
            assert blocks == [64, 64, 22]
            assert top[:, 0].tolist() == [oracle_top_k(index, Q @ src.vectors[:, i], 1)[0]
                                          for i in range(150)]

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_rejected(self, k):
        index = build_index(random_set(3, 2, 0))
        with pytest.raises(ValueError) as exc:
            evaluation._search(index, np.eye(2), np.ones((2, 1)), [0], k)
        assert str(exc.value) == "k must be >= 1"

    def test_identical_targets_resolve_to_the_first_copy(self):
        # copies at the end of the vocabulary, where BLAS kernels handle
        # the ragged edge of a matrix with other code
        emb = random_set(1003, 40, seed=25)
        emb.vectors[:, -8:] = emb.vectors[:, :8]
        top, _, zero = evaluation._search(build_index(emb), np.eye(40), emb.vectors,
                                          np.arange(1003), 1)
        assert not zero.any()
        assert top[:, 0].tolist() == [i if i < 995 else i - 995 for i in range(1003)]

    def test_memory_stays_within_one_score_block(self):
        # 64 rows x 5000 targets: one 2.56 MB block at a time, not two
        src, tgt = random_set(200, 8, seed=29), random_set(5000, 8, seed=30, prefix="t")
        index = build_index(tgt)
        block = 8 * 5000 * evaluation.BLOCK_ROWS
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            evaluation._search(index, np.eye(8), src.vectors, np.arange(200), 1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert block <= peak < 1.5 * block

    def test_scale_matches_per_query_oracle(self):
        # 500 queries over 2000 targets span eight score blocks, the last ragged
        src = random_set(2000, 50, seed=22)
        tgt = random_set(2000, 50, seed=23, prefix="t")
        Q = random_orthogonal(50, 24)
        tgt = make_set(tgt.tokens, Q @ src.vectors + 0.8 * tgt.vectors)
        index = build_index(tgt)
        assert 500 // evaluation.BLOCK_ROWS == 7
        top, _, _ = evaluation._search(index, Q, src.vectors, np.arange(500), 1)
        assert top[:, 0].tolist() == [oracle_top_k(index, Q @ src.vectors[:, i], 1)[0]
                                      for i in range(500)]


def odd_target_set():
    """A target set with a zero column, columns below 1e-162 and above
    1e154 (their squares leave the normal range), a pair of identical
    columns at each of those scales and a column repeated three times."""
    emb = random_set(300, 20, seed=41, prefix="t")
    V = emb.vectors
    V[:, 3] = 0.0
    V[:, [10, 11]] *= 1e-170
    V[:, [20, 21]] *= 1e200
    V[:, 12], V[:, 22] = V[:, 10], V[:, 20]
    V[:, [5, 150, 299]] = V[:, [40, 40, 40]]
    return emb


class TestIndexInPlace:
    """The CLI's index (`_index(emb, emb.vectors)`) is `build_index`'s, and
    the public functions leave the caller's set as it is."""

    def test_equals_build_index_bit_for_bit(self):
        emb = odd_target_set()
        want = build_index(emb)
        raw = emb.vectors.copy()
        got = evaluation._index(emb, emb.vectors)
        assert got.unit is emb.vectors and not np.array_equal(emb.vectors, raw)
        assert got.unit.tobytes() == want.unit.tobytes()
        assert got.excluded == want.excluded == [3]
        assert got.repeats.tolist() == want.repeats.tolist()
        assert got.first_copies.tolist() == want.first_copies.tolist()
        assert dict(zip(got.repeats.tolist(), got.first_copies.tolist())) == {
            12: 10, 22: 20, 40: 5, 150: 5, 299: 5}

    def test_public_functions_leave_the_vectors_unchanged(self):
        src = random_set(300, 20, seed=42)
        tgt = odd_target_set()
        src.vectors[:, 7] *= 1e200
        before = src.vectors.copy(), tgt.vectors.copy()
        lex = build_identity_lexicon(src, make_set([f"w{i}" for i in range(300)],
                                                  tgt.vectors))
        index = build_index(tgt)
        nearest_neighbor(index, src.vectors[:, 7], k=3)
        precision_at_1(random_orthogonal(20, 43), lex, src, tgt)
        assert src.vectors.tobytes() == before[0].tobytes()
        assert tgt.vectors.tobytes() == before[1].tobytes()

    def test_precision_at_1_searches_the_index_it_is_given(self):
        src, tgt = random_set(300, 20, seed=44), odd_target_set()
        Q = random_orthogonal(20, 45)
        lex = Lexicon(pairs=[(i, (7 * i) % 300) for i in range(300)])
        want = precision_at_1(Q, lex, src, tgt)
        assert precision_at_1(Q, lex, src, tgt, evaluation._index(tgt, tgt.vectors)) == want
        with pytest.raises(ValueError, match="not over the target set"):
            precision_at_1(Q, lex, src, tgt, build_index(src))


def test_mapped_keeps_the_bits_of_finite_products():
    rng = np.random.default_rng(16)
    Q, X = rng.standard_normal((4, 4)), rng.standard_normal((4, 30))
    X[:, 7] = HUGE
    with np.errstate(over="ignore", invalid="ignore"):
        plain = Q @ X
    M = evaluation._mapped(Q, X)
    keep = np.arange(30) != 7
    assert not np.isfinite(plain[:, 7]).all() and np.isfinite(M).all()
    assert np.array_equal(M[:, keep], plain[:, keep])


class TestPrecisionAt1:
    def test_identity_alignment(self):
        emb = random_set(10, 4, seed=1)
        lex = build_identity_lexicon(emb, emb)
        p, n = precision_at_1(np.eye(4), lex, emb, emb)
        assert p == 1.0 and n == 10

    def test_multi_translation_credit(self):
        src = make_set(["dog"], np.array([[1.0], [0.0]]))
        tgt = make_set(["cane", "cani", "altro"],
                       np.array([[1.0, 0.9, -1.0], [0.0, 0.1, 0.0]]))
        lex = Lexicon(pairs=[(0, 0), (0, 1)])
        p, n = precision_at_1(np.eye(2), lex, src, tgt)
        assert p == 1.0 and n == 1  # "cane" retrieved, counts once

    def test_hand_enumeration_three_words(self):
        src = make_set(["a", "b", "c"], np.eye(3))
        tgt = make_set(["ta", "tb", "tc"],
                       np.array([[1.0, 0.0, 0.0],
                                 [0.0, 0.0, 1.0],
                                 [0.0, 1.0, 0.0]]))
        lex = Lexicon(pairs=[(0, 0), (1, 1), (2, 2)])
        # identity map: a->ta correct, b retrieves tc, c retrieves tb
        p, n = precision_at_1(np.eye(3), lex, src, tgt)
        assert p == pytest.approx(1 / 3) and n == 3

    def test_invariant_to_target_rescaling_and_order(self):
        rng = np.random.default_rng(2)
        src = random_set(8, 3, seed=2)
        tgt = random_set(8, 3, seed=3, prefix="t")
        Q = random_orthogonal(3, 4)
        pairs = [(i, (i * 3) % 8) for i in range(8)]
        base, _ = precision_at_1(Q, Lexicon(pairs=pairs), src, tgt)
        scaled = make_set(tgt.tokens, tgt.vectors * rng.uniform(0.1, 5.0, 8))
        shuffled = Lexicon(pairs=[pairs[i] for i in rng.permutation(8)])
        assert precision_at_1(Q, shuffled, src, scaled)[0] == base

    def test_empty_lexicon(self):
        emb = random_set(3, 2, 0)
        with pytest.raises(ValueError, match="empty"):
            precision_at_1(np.eye(2), Lexicon(pairs=[]), emb, emb)

    def test_zero_mapped_query_is_a_logged_miss(self):
        emb = random_set(6, 3, seed=4)
        src = make_set(emb.tokens, emb.vectors.copy())
        src.vectors[:, 0] = 0.0  # its gold target is the first column
        lex = build_identity_lexicon(src, emb)
        with pytest.warns(UserWarning, match="1 of 6 queries have a zero mapped vector"):
            p, n = precision_at_1(np.eye(3), lex, src, emb)
        assert n == 6 and p == pytest.approx(5 / 6)

    @pytest.mark.filterwarnings("error")  # also the zero-query warning
    def test_overflowing_mapped_query_is_retrieved(self):
        src = make_set(["huge", "one"], [[HUGE, 1.0], [HUGE, 1.0]])
        tgt = make_set(["east", "north", "west"], [[1.0, 0.0, -1.0], [0.0, 1.0, 0.2]])
        top, _, zero = evaluation._search(build_index(tgt), ROT45, src.vectors, [0, 1], 1)
        assert top[:, 0].tolist() == [1, 1] and not zero.any()
        lex = Lexicon(pairs=[(0, 1), (1, 1)])
        assert precision_at_1(ROT45, lex, src, tgt) == (1.0, 2)

    @pytest.mark.filterwarnings("error")
    def test_map_overflowing_every_scale_is_a_logged_miss(self):
        emb = make_set(["a", "b"], np.eye(2))
        with pytest.warns(UserWarning, match="1 of 1 queries have a zero mapped vector"):
            p, n = precision_at_1(np.full((2, 2), 1e308), Lexicon(pairs=[(0, 1)]),
                                  make_set(["a", "b"], np.ones((2, 2))), emb)
        assert (p, n) == (0.0, 1)


class TestRankSemanticShift:
    def test_exact_token_ranks_last_with_zero_distance(self):
        emb = random_set(6, 4, seed=5)
        Q = random_orthogonal(4, 6)
        tgt = make_set(emb.tokens, Q @ emb.vectors)
        tgt.vectors[:, 2] = np.random.default_rng(7).standard_normal(4)
        ranking, dropped = rank_semantic_shift(Q, *identity_pairs(emb, tgt))
        assert dropped == 0
        assert ranking[0][0] == "w2"
        assert ranking[-1][1] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_planted_shift_tops_ranking(self, seed):
        rng = np.random.default_rng(seed)
        src = random_set(1000, 10, seed=seed)
        Q = random_orthogonal(10, seed)
        vectors = Q @ src.vectors
        planted = int(rng.integers(1000))
        vectors[:, planted] = rng.standard_normal(10)
        tgt = make_set(src.tokens, vectors)
        ranking, _ = rank_semantic_shift(Q, *identity_pairs(src, tgt))
        assert ranking[0][0] == f"w{planted}"

    def test_identical_tiny_vectors_have_zero_distance(self):
        emb = make_set(["t"], [[1e-170], [0.0]])
        ranking, _ = rank_semantic_shift(np.eye(2), *identity_pairs(emb, emb))
        assert ranking == [("t", 0.0, "")]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_mapped_vector_keeps_its_distance(self):
        src = make_set(["huge", "one"], [[HUGE, 1.0], [HUGE, 1.0]])
        tgt = make_set(["huge", "one"], [[0.3, 0.3], [1.0, 1.0]])
        ranking, _ = rank_semantic_shift(ROT45, *identity_pairs(src, tgt))
        dist = {token: d for token, d, _ in ranking}
        assert 0.0 < dist["one"] < 1.0
        assert abs(dist["huge"] - dist["one"]) <= 1e-15

    @pytest.mark.parametrize("scale", [1e-170, 3e-162, 1e-150, 1.0, 1e200])
    def test_distances_match_mpmath_at_any_scale(self, scale):
        # np.linalg.norm squares first: below about 1e-154 squares leave
        # the normal range, above about 1e154 they overflow
        rng = np.random.default_rng(14)
        xs, ys = rng.standard_normal((3, 5)), rng.standard_normal((3, 5))
        ys[:, 0] = xs[:, 0]
        src, tgt = make_set("abcde", scale * xs), make_set("abcde", scale * ys)
        Q = random_orthogonal(3, 15)
        ranking, _ = rank_semantic_shift(Q, *identity_pairs(src, tgt))
        assert len(ranking) == 5
        with mpmath.workdps(50):
            q = mpmath.matrix(Q.tolist())
            for token, dist, _ in ranking:
                x = q * mpmath.matrix(src.vectors[:, src.token_index[token]].tolist())
                y = mpmath.matrix(tgt.vectors[:, tgt.token_index[token]].tolist())
                cos = mpmath.fsum(a * b for a, b in zip(x, y)) / (
                    mpmath.norm(x) * mpmath.norm(y))
                assert abs(dist - float(1 - cos)) <= 1e-15

    def test_frequency_filter_drops_missing_and_rare(self):
        emb = random_set(4, 3, seed=8)
        freqs = {"w0": 0.1, "w1": 1e-7, "w2": 0.2}  # w3 missing
        ranking, dropped = rank_semantic_shift(
            np.eye(3), *identity_pairs(emb, emb), src_freqs=freqs, tgt_freqs=freqs,
            threshold=1e-5)
        assert dropped == 2
        assert {t for t, _, _ in ranking} == {"w0", "w2"}

    @pytest.mark.parametrize("src_freqs,tgt_freqs", [
        (None, None), ({"w0": 0.5}, None), (None, {"w0": 0.5})],
        ids=["neither", "source-only", "target-only"])
    def test_threshold_needs_both_frequency_tables(self, src_freqs, tgt_freqs):
        # as the CLI's --threshold does: a missing table holds no token, so
        # the ranking would be empty
        emb = random_set(3, 2, seed=8)
        with pytest.raises(ValueError, match="both frequency tables"):
            rank_semantic_shift(np.eye(2), *identity_pairs(emb, emb), src_freqs=src_freqs,
                                tgt_freqs=tgt_freqs, threshold=1e-5)

    def test_noise_labels_attached(self):
        emb = random_set(3, 2, seed=9)
        resp = Responsibilities(w=np.array([0.9, 0.1, 0.8]))
        ranking, _ = rank_semantic_shift(np.eye(2), *identity_pairs(emb, emb),
                                         responsibilities=resp)
        labels = {t: l for t, _, l in ranking}
        assert labels["w1"] == "Noise" and labels["w0"] == "Aligned"

    def test_distances_rotation_invariant(self):
        src = random_set(20, 5, seed=10)
        tgt = random_set(20, 5, seed=11, prefix="w")
        Q = random_orthogonal(5, 12)
        R = random_orthogonal(5, 13)
        base, _ = rank_semantic_shift(Q, *identity_pairs(src, tgt))
        rot_tgt = make_set(tgt.tokens, R @ tgt.vectors)
        rotated, _ = rank_semantic_shift(R @ Q, *identity_pairs(src, rot_tgt))
        for (t1, d1, _), (t2, d2, _) in zip(base, rotated):
            assert t1 == t2
            assert d1 == pytest.approx(d2, abs=1e-9)

    @pytest.mark.parametrize("n_tokens,n_x,n_y,n_w", [
        (3, 2, 3, None), (3, 3, 2, None), (2, 3, 3, None), (3, 3, 3, 2), (3, 3, 3, 4),
        (0, 0, 0, 1),
    ])
    def test_sizes_that_differ_are_rejected(self, n_tokens, n_x, n_y, n_w):
        rng = np.random.default_rng(16)
        resp = None if n_w is None else Responsibilities(w=np.full(n_w, 0.9))
        with pytest.raises(ValueError, match="differ in number"):
            rank_semantic_shift(np.eye(2), [f"w{i}" for i in range(n_tokens)],
                                rng.standard_normal((2, n_x)), rng.standard_normal((2, n_y)),
                                responsibilities=resp)


def oracle_shift_ranking(Q, lex, src, tgt, src_freqs, tgt_freqs, threshold, resp):
    """The per-token loop: filter, one GEMV and one cosine per token, then sort."""
    rows, dropped = [], 0
    for t, (i, j) in enumerate(lex.pairs):
        token = src.tokens[i]
        if threshold is not None:
            fs = (src_freqs or {}).get(token)
            ft = (tgt_freqs or {}).get(token)
            if fs is None or ft is None or fs < threshold or ft < threshold:
                dropped += 1
                continue
        x, y = Q @ src.vectors[:, i], tgt.vectors[:, j]
        nx, ny = np.linalg.norm(x), np.linalg.norm(y)
        dist = 1.0 if nx == 0 or ny == 0 else 1.0 - float(np.dot(x, y) / (nx * ny))
        label = "" if resp is None else ("Aligned" if resp.h[t] else "Noise")
        rows.append((token, dist, label))
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows, dropped


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6), n=st.integers(0, 30),
       n_zero_src=st.integers(0, 3), n_zero_tgt=st.integers(0, 3),
       threshold=st.sampled_from([None, 0.0, 0.3, 1.0]), labelled=st.booleans())
def test_shift_ranking_matches_per_token_oracle(seed, d, n, n_zero_src, n_zero_tgt,
                                                threshold, labelled):
    rng = np.random.default_rng(seed)
    V = n + 3
    src = random_set(V, d, seed=rng.integers(2**32))
    tgt = random_set(V, d, seed=rng.integers(2**32))
    src.vectors[:, rng.integers(V, size=n_zero_src)] = 0.0
    tgt.vectors[:, rng.integers(V, size=n_zero_tgt)] = 0.0
    # distinct source indices, so every ranked token is distinct
    pairs = [(int(i), int(j)) for i, j in zip(rng.permutation(V)[:n],
                                              rng.integers(V, size=n))]
    lex = Lexicon(pairs=pairs)
    tokens = [src.tokens[i] for i, _ in pairs]
    # gathered as `io.gather_pairs` gathers them, which refuses n = 0
    idx = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    X, Y = np.take(src.vectors, idx[:, 0], axis=1), np.take(tgt.vectors, idx[:, 1], axis=1)
    # a frequency table misses a token (nan) or holds it at, below or above 0.3
    freqs = rng.choice([np.nan, 0.0, 0.2, 0.3, 0.5, 1.0], size=(2, n))
    src_freqs, tgt_freqs = ({t: f for t, f in zip(tokens, row) if not np.isnan(f)}
                            for row in freqs)
    resp = None
    if labelled:
        h = rng.random(n) < 0.5
        resp = Responsibilities(w=h.astype(float))
    Q = rng.standard_normal((d, d))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a zero vector is no division by zero
        got, got_dropped = rank_semantic_shift(Q, tokens, X, Y, src_freqs, tgt_freqs,
                                               threshold, resp)
    want, want_dropped = oracle_shift_ranking(Q, lex, src, tgt, src_freqs, tgt_freqs,
                                              threshold, resp)
    assert got_dropped == want_dropped
    want_rows = {t: (dist, label) for t, dist, label in want}
    assert {t: label for t, _, label in got} == {t: l for t, (_, l) in want_rows.items()}
    for token, dist, _ in got:
        assert dist == pytest.approx(want_rows[token][0], abs=1e-12)
    # the order is the oracle's up to near-ties
    for (t, _, _), (u, dist, _) in zip(got, want):
        assert t == u or abs(want_rows[t][0] - dist) <= 1e-12


def fancy_index_ranking(Q, tokens, X, Y, src_freqs=None, tgt_freqs=None,
                        threshold=None, resp=None):
    """`rank_semantic_shift` from whole copies of the kept pairs, also when
    every token is kept: the kept columns of X copied by index (an F-order
    copy) and mapped, and those of Y taken (a C-order copy), each
    normalized in a copy of all of it."""
    kept = np.arange(len(tokens))
    if threshold is not None:
        kept = np.array([i for i, t in enumerate(tokens) if t in src_freqs
                         and t in tgt_freqs and src_freqs[t] >= threshold
                         and tgt_freqs[t] >= threshold], dtype=np.intp)
    x, nx = full_square_norms(evaluation._mapped(Q, X[:, kept]))
    y, ny = full_square_norms(np.take(Y, kept, axis=1))
    zero = (nx == 0) | (ny == 0)
    dists = np.where(zero, 1.0, 1.0 - np.einsum("ij,ij->j", x, y)).tolist()
    rows = [(tokens[t], dist, "" if resp is None else "Aligned" if resp.h[t] else "Noise")
            for t, dist in zip(kept.tolist(), dists)]
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows, len(tokens) - len(kept)


class TestShiftRankingCopies:
    """The ranking copies one block of the pairs at a time."""

    @pytest.fixture
    def pairs(self):
        rng = np.random.default_rng(40)
        src = random_set(3000, 100, seed=41)
        Q = random_orthogonal(100, 42)
        tgt = make_set(src.tokens, Q @ src.vectors + rng.standard_normal((100, 3000)))
        tokens, X, Y = identity_pairs(src, tgt)
        freqs = dict(zip(tokens, rng.uniform(0.0, 1.0, len(tokens))))
        resp = Responsibilities(w=(rng.random(len(tokens)) < 0.7).astype(float))
        return Q, tokens, X, Y, freqs, resp

    @pytest.mark.parametrize("threshold", [None, 0.0])
    def test_unfiltered_ranking_matches_the_copies(self, pairs, threshold):
        Q, tokens, X, Y, freqs, resp = pairs
        got, dropped = rank_semantic_shift(Q, tokens, X, Y, freqs, freqs, threshold, resp)
        want, _ = fancy_index_ranking(Q, tokens, X, Y, freqs, freqs, threshold, resp)
        assert dropped == 0
        # X is read in place, not as an F-order copy, and Y through one
        # block of it at a time: neither moves a bit
        assert got == want

    def test_filtered_ranking_equals_the_copies_bit_for_bit(self, pairs):
        Q, tokens, X, Y, freqs, resp = pairs
        got = rank_semantic_shift(Q, tokens, X, Y, freqs, freqs, 0.5, resp)
        assert 0 < got[1] < len(tokens)
        assert got == fancy_index_ranking(Q, tokens, X, Y, freqs, freqs, 0.5, resp)

    @pytest.mark.parametrize("threshold", [None, 0.0])
    def test_unfiltered_ranking_adds_one_mapped_matrix(self, pairs, threshold):
        # Q X and its finiteness mask; copies of X and Y and an array of
        # squares would add three more d x n matrices
        Q, tokens, X, Y, freqs, resp = pairs
        tracemalloc.start()
        try:
            rank_semantic_shift(Q, tokens, X, Y, freqs, freqs, threshold, resp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * X.nbytes

    @pytest.mark.parametrize("threshold", [None, 0.5])
    def test_holds_one_block_besides_the_pairs(self, pairs, threshold):
        # one block of mapped columns and one of Y's (1024 of 3000 each), and
        # one of kept columns of X when a token is dropped; all pairs mapped
        # at once add X.nbytes
        Q, tokens, X, Y, freqs, resp = pairs
        peak = traced_peak(rank_semantic_shift, Q, tokens, X, Y, freqs, freqs,
                           threshold, resp)[1]
        assert peak < X.nbytes

    def test_a_rescaled_target_column_copies_one_block_of_y(self):
        # only the block of Y that holds the column is copied, not all of Y
        rng = np.random.default_rng(43)
        d, n = 300, 4000
        X, Y = rng.standard_normal((d, n)), rng.standard_normal((d, n))
        Y[:, 7] *= 1e200
        tokens = [f"w{i}" for i in range(n)]
        (ranking, _), peak = traced_peak(rank_semantic_shift, random_orthogonal(d, 44),
                                         tokens, X, Y)
        assert len(ranking) == n and 0.0 < dict((t, x) for t, x, _ in ranking)["w7"] < 2.0
        assert peak < 0.75 * X.nbytes

    @pytest.fixture
    def odd_pairs(self, pairs):
        """`pairs` with a source column near 1e-170 and a target column near
        1e200, both kept at threshold 0.5: `_unit_columns` rescales both."""
        Q, tokens, X, Y, freqs, resp = pairs
        first, second = [i for i, t in enumerate(tokens) if freqs[t] >= 0.5][:2]
        X, Y = X.copy(), Y.copy()
        X[:, first] *= 1e-170
        Y[:, second] *= 1e200
        return Q, tokens, X, Y, freqs, resp

    @pytest.mark.parametrize("threshold", [None, 0.5])
    def test_odd_columns_rank_as_rescaled_copies(self, odd_pairs, threshold):
        Q, tokens, X, Y, freqs, resp = odd_pairs
        got = rank_semantic_shift(Q, tokens, X, Y, freqs, freqs, threshold, resp)
        assert got == fancy_index_ranking(Q, tokens, X, Y, freqs, freqs, threshold, resp)

    def test_an_odd_mapped_column_is_rescaled_in_place(self, odd_pairs, pairs):
        # a copy of the mapped Q X would add X.nbytes
        Q, tokens, X, _, freqs, resp = odd_pairs
        Y = pairs[3]
        tracemalloc.start()
        try:
            rank_semantic_shift(Q, tokens, X, Y, freqs, freqs, None, resp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * X.nbytes

def test_eval_report_json_keys(tmp_path):
    report = dict(cli._REPORT, p_at_1=0.5, n_queries=10, test_error=1.25)
    text = cli._write_json(Namespace(output_dir=tmp_path), "report.json", report)
    data = json.loads(text)
    assert set(data) == {"p_at_1", "n_queries", "test_error", "iterations",
                         "noise_rate"}
    assert (tmp_path / "report.json").read_text() == text + "\n"


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_eval_report_json_is_strict(tmp_path, value):
    # the one JSON writer raises on a non-finite value and writes no file
    out = tmp_path / "out"
    with pytest.raises(ValueError):
        cli._write_json(Namespace(output_dir=out), "report.json",
                        dict(cli._REPORT, test_error=value))
    assert not out.exists()
