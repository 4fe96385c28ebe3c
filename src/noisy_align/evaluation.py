"""Retrieval evaluation and semantic-shift ranking.

Nearest-neighbor retrieval is exact and brute-force over the target
vocabulary under cosine similarity. Every caller goes through one kernel
that maps and scores the queries one block at a time, with a single GEMM
per block against the whole target matrix. Besides `index.unit` (one
float64 copy of the targets), memory is bounded by one score block of
`BLOCK_ROWS`·8·V bytes for V targets: a block holds 64 queries.
Ties break deterministically toward the lower token index. Shift
ranking reads only the gathered pairs: their tokens, X and Y.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .io import EmbeddingSet, Lexicon, _column_blocks, _column_norms, _unit_columns
from .mixture import Responsibilities

logger = logging.getLogger(__name__)

# Queries per score block: each block reads all of `index.unit`, so blocks
# of a few rows make the GEMM memory-bound (1500 queries at V=50k, d=300 on
# a 2-vCPU Xeon: 2.95 s at 5 rows per block, 0.74-0.79 s at 64).
BLOCK_ROWS = 64


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
    """Summary metrics for one alignment run. The test metrics are None
    when there was no test lexicon; `iterations` and `noise_rate` are 0
    when no mixture was fitted."""

    p_at_1: float | None = None
    n_queries: int | None = None
    test_error: float | None = None
    iterations: int = 0
    noise_rate: float = 0.0

    def __post_init__(self):
        if self.p_at_1 is not None and not 0.0 <= self.p_at_1 <= 1.0:
            raise ValueError("p_at_1 must lie in [0, 1]")


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
    unit, norms = _unit_columns(emb.vectors)
    excluded = [int(i) for i in np.flatnonzero(norms == 0)]
    repeats, first_copies = _repeats(emb.vectors)
    return NnIndex(emb=emb, unit=unit, excluded=excluded,
                   repeats=repeats, first_copies=first_copies)


def _mapped(Q: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Q @ X for cosine scoring, with every column finite.

    A finite column x whose product overflows is mapped again as
    Q @ (x / max|x|), which has the same cosines; every other column keeps
    its exact bits. A column that is still not finite is returned as zero,
    which the callers treat as a zero mapped vector.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        M = Q @ X
        bad = np.flatnonzero(~np.isfinite(M).all(axis=0))
        if bad.size:
            cols = X[:, bad]
            cols = Q @ (cols / np.abs(cols).max(axis=0))
            M[:, bad] = np.where(np.isfinite(cols).all(axis=0), cols, 0.0)
    return M


def _search(index: NnIndex, Qm: np.ndarray, X: np.ndarray, cols,
            k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact top-k cosine targets of the mapped queries Qm @ X[:, cols].

    Queries are mapped by `_mapped`, scored and ranked one block at a time,
    so neither all mapped queries nor all scores are ever held at once.
    Excluded (zero) targets are never returned, and identical targets
    always tie. Ties break toward the lowest index, also across the k-th
    place.

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
    for start in range(0, n, BLOCK_ROWS):
        block = slice(start, start + BLOCK_ROWS)
        M, norms = _unit_columns(_mapped(Qm, X[:, cols[block]]))
        zero[block] = norms == 0
        S = M.T @ index.unit
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
        del S  # so that the next block's scores never coexist with these
    return top, scores, zero


def nearest_neighbor(index: NnIndex, q: np.ndarray, k: int) -> list[tuple[str, float]]:
    """Top-k target tokens for a query vector, exact brute-force.

    Returns (token, cosine similarity) pairs, descending. Ties break toward
    the lower token index; excluded (zero) targets are never returned.
    """
    q = np.asarray(q, dtype=np.float64)
    if not np.isfinite(q).all():
        raise ValueError("query vector has non-finite entries")
    # the identity maps every finite q to itself, value for value
    top, scores, zero = _search(index, np.eye(q.size), q[:, None], [0], k)
    if zero[0]:
        raise ValueError("zero query vector")
    return [(index.emb.tokens[i], float(s))
            for i, s in zip(top[0], scores[0]) if i >= 0]


def precision_at_1(Q: np.ndarray, test_lex: Lexicon, src: EmbeddingSet,
                   tgt: EmbeddingSet) -> tuple[float, int]:
    """Precision@1 of mapped source words against their gold translations.

    Queries are the unique source indices of the test lexicon; a query is
    correct iff its retrieved top-1 token is any of its gold targets.
    A query whose mapped vector is zero (see `_mapped`) has no neighbour:
    it counts as a miss, and the number of such queries is logged.

    Returns:
        (p_at_1, n_queries)
    """
    if not test_lex.pairs:
        raise ValueError("empty test lexicon")
    gold: dict[int, set[str]] = {}
    for s, t in test_lex.pairs:
        gold.setdefault(s, set()).add(tgt.tokens[t])
    top, _, zero = _search(build_index(tgt), Q, src.vectors, list(gold), 1)
    if zero.any():
        logger.warning("%d of %d queries have a zero mapped vector; "
                       "counted as misses", int(zero.sum()), len(gold))
    correct = sum(t >= 0 and tgt.tokens[t] in targets
                  for t, targets in zip(top[:, 0], gold.values()))
    return correct / len(gold), len(gold)


def rank_semantic_shift(Q: np.ndarray, tokens: list[str], X: np.ndarray, Y: np.ndarray,
                        src_freqs: dict[str, float] | None = None,
                        tgt_freqs: dict[str, float] | None = None,
                        threshold: float | None = None,
                        responsibilities: Responsibilities | None = None):
    """Rank shared-vocabulary tokens by post-alignment cosine distance.

    Column t of X and Y is the pair of `tokens[t]`; differing sizes (also
    of the responsibilities) are a ValueError. distance(token) =
    1 - cos(Q x_token, y_token), sorted descending; the distance is 1
    where either vector is zero. With a frequency threshold, tokens below
    it in either table (or missing from one) are dropped before scoring; a
    threshold without both tables is a ValueError.
    The kept pairs are mapped (`_mapped`) and scored one block of columns
    at a time (`io._column_blocks`): besides X and Y, one block of mapped
    columns is held, and one of kept columns of Y when a token is dropped
    or a column of the block is rescaled.

    Returns:
        (ranking, n_dropped) where ranking is a list of
        (token, distance, label) and label comes from the hard EM
        decisions when responsibilities are given, else "".
    """
    h = None if responsibilities is None else responsibilities.h
    if {X.shape[1], Y.shape[1], len(tokens) if h is None else h.size} != {len(tokens)}:
        raise ValueError("tokens, X and Y columns and responsibilities differ in number")
    kept = np.arange(len(tokens))
    if threshold is not None:
        fs, ft = src_freqs, tgt_freqs
        if fs is None or ft is None:
            raise ValueError("a threshold needs both frequency tables")
        kept = np.array([i for i, t in enumerate(tokens) if t in fs and t in ft
                         and fs[t] >= threshold and ft[t] >= threshold], dtype=np.intp)
    dists = np.empty(len(kept))
    for s in _column_blocks(len(kept)):
        cols = kept[s] if len(kept) < len(tokens) else s
        x = _mapped(Q, X[:, cols])
        nx, odd, scaled = _column_norms(x)
        x[:, odd] = scaled  # x is the ranking's own
        y = Y[:, cols]
        ny, odd, scaled = _column_norms(y)
        if odd.size:  # y may be a view of the caller's Y
            y = y.copy()
            y[:, odd] = scaled
        zero = (nx == 0) | (ny == 0)
        cos = np.einsum("ij,ij->j", x, y) / np.where(zero, 1.0, nx * ny)
        dists[s] = np.where(zero, 1.0, 1.0 - cos)
        del x, y  # so that the next block's columns never coexist with these
    rows = [(tokens[t], dist, "" if h is None else "Aligned" if h[t] else "Noise")
            for t, dist in zip(kept.tolist(), dists.tolist())]
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows, len(tokens) - len(kept)


def write_shift_ranking_tsv(ranking, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("token\tcosine_distance\tlabel\n")
        for token, dist, label in ranking:
            fh.write(f"{token}\t{dist:.6g}\t{label}\n")
