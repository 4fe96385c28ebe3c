"""Retrieval evaluation and semantic-shift ranking.

Nearest-neighbor retrieval is exact and brute-force over the target
vocabulary under cosine similarity. Every caller goes through one kernel
that maps and scores the queries one block at a time, with a single GEMM
per block against the whole target matrix. Besides `index.unit` (one
float64 copy of the targets), memory is bounded by one score block of at
most `SCORE_BLOCK_BYTES`. Ties break deterministically toward the lower
token index.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, asdict

import numpy as np

from .align import _as_matrix
from .io import EmbeddingSet, Lexicon, _column_norms
from .mixture import Responsibilities

logger = logging.getLogger(__name__)

# Byte budget for one (query block x vocabulary) float64 score block.
SCORE_BLOCK_BYTES = 2 ** 21


@dataclass
class NnIndex:
    """Brute-force retrieval index over one embedding set.

    Columns are unit-normalized; zero vectors are excluded and their
    indices recorded. Each column in `repeats` is identical to the column
    at the same position in `first_copies`, the lowest such index.
    """

    emb: EmbeddingSet
    unit: np.ndarray
    excluded: list[int] = field(default_factory=list)
    repeats: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    first_copies: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))


@dataclass
class EvalReport:
    """Summary metrics for one alignment run."""

    p_at_1: float = 0.0
    n_queries: int = 0
    test_error: float = 0.0
    iterations: int = 0
    noise_rate: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p_at_1 <= 1.0:
            raise ValueError("p_at_1 must lie in [0, 1]")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _repeats(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns identical to a lower-index column, and the lowest such index.

    Identical columns have equal sums, so only columns that share their sum
    are compared element by element. (`np.unique` would do the grouping,
    but it imports `numpy.ma`, which costs more resident memory than the
    whole retrieval.)
    """
    sums = vectors.sum(axis=0)
    order = np.argsort(sums, kind="stable")
    same = sums[order[1:]] == sums[order[:-1]]
    if not same.any():
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    cand = np.sort(order[np.r_[same, False] | np.r_[False, same]])
    # a stable lexicographic sort puts identical columns side by side,
    # still in ascending index order
    cand = cand[np.lexsort(vectors[:, cand])]
    cols = vectors[:, cand]
    starts = np.r_[True, (cols[:, 1:] != cols[:, :-1]).any(axis=0)]
    first = cand[np.flatnonzero(starts)[np.cumsum(starts) - 1]]
    return cand[~starts], first[~starts]


def build_index(emb: EmbeddingSet) -> NnIndex:
    """Precompute unit-normalized target columns for cosine retrieval."""
    vectors, norms = _column_norms(emb.vectors)
    excluded = [int(i) for i in np.flatnonzero(norms == 0)]
    safe = np.where(norms == 0, 1.0, norms)
    repeats, first_copies = _repeats(emb.vectors)
    return NnIndex(emb=emb, unit=vectors / safe, excluded=excluded,
                   repeats=repeats, first_copies=first_copies)


def _search(index: NnIndex, Qm: np.ndarray | None, X: np.ndarray, cols,
            k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact top-k cosine targets of the mapped queries Qm @ X[:, cols].

    Queries are mapped, scored and ranked one block at a time, so neither
    all mapped queries nor all scores are ever held at once; `Qm=None`
    leaves the queries unmapped. Excluded (zero) targets are never
    returned, and identical targets always tie. Ties break toward the
    lowest index, also across the k-th place.

    Returns:
        (top, scores, zero): (n, k) target indices, best first, -1 where
        there is no neighbour; their cosine similarities (-inf where there
        is none); and an (n,) mask of the queries whose mapped vector is
        zero, which have no neighbour.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    cols = np.asarray(cols, dtype=np.intp)
    n, V = len(cols), index.unit.shape[1]
    k = min(k, V)
    top = np.empty((n, k), dtype=np.intp)
    scores = np.empty((n, k))
    zero = np.zeros(n, dtype=bool)
    step = max(1, SCORE_BLOCK_BYTES // (8 * V))
    for start in range(0, n, step):
        block = slice(start, start + step)
        M = X[:, cols[block]]
        if Qm is not None:
            M = Qm @ M
        if not np.isfinite(M).all():
            raise ValueError("query vector has non-finite entries")
        M, norms = _column_norms(M)
        zero[block] = norms == 0
        S = (M / np.where(zero[block], 1.0, norms)).T @ index.unit
        S[:, index.excluded] = -np.inf
        # BLAS may round the scores of identical columns differently
        S[:, index.repeats] = S[:, index.first_copies]
        if k == 1:
            best = np.argmax(S, axis=1)[:, None]  # first maximum on ties
        else:
            best = np.argsort(-S, axis=1, kind="stable")[:, :k]
        got = np.take_along_axis(S, best, axis=1)
        found = np.isfinite(got) & ~zero[block, None]
        top[block] = np.where(found, best, -1)
        scores[block] = np.where(found, got, -np.inf)
    return top, scores, zero


def nearest_neighbor(index: NnIndex, q: np.ndarray, k: int) -> list[tuple[str, float]]:
    """Top-k target tokens for a query vector, exact brute-force.

    Returns (token, cosine similarity) pairs, descending. Ties break toward
    the lower token index; excluded (zero) targets are never returned.
    """
    q = np.asarray(q, dtype=np.float64)
    top, scores, zero = _search(index, None, q[:, None], [0], k)
    if zero[0]:
        raise ValueError("zero query vector")
    return [(index.emb.tokens[i], float(s))
            for i, s in zip(top[0], scores[0]) if i >= 0]


def precision_at_1(Q, test_lex: Lexicon, src: EmbeddingSet,
                   tgt: EmbeddingSet) -> tuple[float, int]:
    """Precision@1 of mapped source words against their gold translations.

    Queries are the unique source indices of the test lexicon; a query is
    correct iff its retrieved top-1 token is any of its gold targets.
    A query whose mapped vector is zero has no neighbour: it counts as a
    miss, and the number of such queries is logged.

    Returns:
        (p_at_1, n_queries)
    """
    if not test_lex.pairs:
        raise ValueError("empty test lexicon")
    gold: dict[int, set[str]] = {}
    for s, t in test_lex.pairs:
        gold.setdefault(s, set()).add(tgt.tokens[t])
    top, _, zero = _search(build_index(tgt), _as_matrix(Q), src.vectors,
                           list(gold), 1)
    if zero.any():
        logger.warning("%d of %d queries have a zero mapped vector; "
                       "counted as misses", int(zero.sum()), len(gold))
    correct = sum(t >= 0 and tgt.tokens[t] in targets
                  for t, targets in zip(top[:, 0], gold.values()))
    return correct / len(gold), len(gold)


def rank_semantic_shift(Q, identity_lex: Lexicon, src: EmbeddingSet,
                        tgt: EmbeddingSet,
                        src_freqs: dict[str, float] | None = None,
                        tgt_freqs: dict[str, float] | None = None,
                        threshold: float | None = None,
                        responsibilities: Responsibilities | None = None):
    """Rank shared-vocabulary tokens by post-alignment cosine distance.

    distance(token) = 1 - cos(Q x_token, y_token), sorted descending; the
    distance is 1 where either vector is zero. With a frequency threshold,
    tokens below it in either table (or missing from one) are dropped
    before scoring. All kept pairs are mapped by one GEMM.

    Returns:
        (ranking, n_dropped) where ranking is a list of
        (token, distance, label) and label comes from the hard EM
        decisions when responsibilities are given, else "".
    """
    tokens = identity_lex.src_tokens or [src.tokens[i] for i, _ in identity_lex.pairs]
    kept = range(len(identity_lex.pairs))
    if threshold is not None:
        src_freqs, tgt_freqs = src_freqs or {}, tgt_freqs or {}

        def frequent(token):
            fs, ft = src_freqs.get(token), tgt_freqs.get(token)
            return fs is not None and ft is not None and fs >= threshold and ft >= threshold

        kept = [t for t in kept if frequent(tokens[t])]
    pairs = np.array(identity_lex.pairs, dtype=np.intp).reshape(-1, 2)[kept]
    x, nx = _column_norms(_as_matrix(Q) @ src.vectors[:, pairs[:, 0]])
    y, ny = _column_norms(tgt.vectors[:, pairs[:, 1]])
    zero = (nx == 0) | (ny == 0)
    cos = np.einsum("ij,ij->j", x, y) / np.where(zero, 1.0, nx * ny)
    dists = np.where(zero, 1.0, 1.0 - cos).tolist()
    h = None if responsibilities is None else responsibilities.h
    rows = [(tokens[t], dist, "" if h is None else "Aligned" if h[t] else "Noise")
            for t, dist in zip(kept, dists)]
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows, len(identity_lex.pairs) - len(kept)


def shift_ranking_to_json(ranking) -> str:
    return json.dumps([[t, d, l] for t, d, l in ranking], indent=2)


def write_shift_ranking_tsv(ranking, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("token\tcosine_distance\tlabel\n")
        for token, dist, label in ranking:
            fh.write(f"{token}\t{dist:.6g}\t{label}\n")
