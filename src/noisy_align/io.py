"""Plain-text I/O for embedding sets, lexicons, stop-lists and frequency tables.

Embedding files are `token v1 v2 ... vd`, one per line, with an optional
word2vec-style `n d` header line that is auto-detected. Lexicons are
`source<TAB>target` (single space accepted as fallback). Stop-lists are one
token per line; frequency tables are `token<TAB>float`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)


class DataError(Exception):
    """Raised when an input file is unreadable, empty or malformed."""


@dataclass
class EmbeddingSet:
    """A vocabulary plus a d x n matrix whose column i embeds tokens[i]."""

    dim: int
    tokens: list[str]
    vectors: np.ndarray
    token_index: dict[str, int] = field(default_factory=dict)
    skipped: int = 0

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if self.vectors.shape != (self.dim, len(self.tokens)):
            raise ValueError(
                f"vectors shape {self.vectors.shape} does not match "
                f"(dim={self.dim}, n={len(self.tokens)})"
            )
        if not np.isfinite(self.vectors).all():
            raise ValueError("embedding matrix contains non-finite values")
        if not self.token_index:
            self.token_index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.token_index) != len(self.tokens):
            raise ValueError("tokens are not unique")

    @property
    def n(self) -> int:
        return len(self.tokens)

    def vector(self, token: str) -> np.ndarray:
        return self.vectors[:, self.token_index[token]]

    def __contains__(self, token: str) -> bool:
        return token in self.token_index


@dataclass
class Lexicon:
    """Ordered (src_idx, tgt_idx) pairs defining the supervision set.

    A source index may repeat with different targets (multi-translation);
    exact duplicate pairs are rejected at load time.
    """

    pairs: list[tuple[int, int]]
    src_tokens: list[str] | None = None
    tgt_tokens: list[str] | None = None

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


def _read_lines(path, what: str):
    """Stream a UTF-8 file's lines, broken only at newlines (`str.splitlines`
    also breaks at `\\x0c`, `\\x85`, ...); read errors raise DataError."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from fh
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} {path} is not valid UTF-8: {exc}") from exc


def _is_header(fields: list[str]) -> bool:
    # word2vec convention: first line `n d`, exactly two integer tokens
    if len(fields) != 2:
        return False
    try:
        int(fields[0]), int(fields[1])
    except ValueError:
        return False
    return True


def load_embeddings(path, limit: int | None = None, normalize: bool = False) -> EmbeddingSet:
    """Load an embedding set from a text file.

    Args:
        path: file with `token v1 ... vd` lines (optional `n d` header).
        limit: keep only the first `limit` valid rows (at least 1); the
            rest of the file is not read.
        normalize: scale every vector to unit Euclidean norm.

    Returns:
        EmbeddingSet; rows with the wrong width, non-finite values or a
        duplicate token are skipped and counted in ``skipped``.

    Raises:
        DataError: unreadable file, zero valid rows, or inconsistent
            dimension on more than half of the rows.
        ValueError: ``limit`` below 1.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    dim = None
    tokens: list[str] = []
    cols: list[np.ndarray] = []
    index: dict[str, int] = {}
    skipped = 0
    bad_dim = 0
    total = 0
    for lineno, line in enumerate(_read_lines(path, "embedding file")):
        if lineno == 0 and _is_header(line.split()):
            continue
        fields = line.rstrip().split(" ")
        if len(fields) < 2 or fields[0] == "":
            continue
        total += 1
        token, values = fields[0], fields[1:]
        if dim is None:
            dim = len(values)
        if len(values) != dim:
            skipped += 1
            bad_dim += 1
            continue
        try:
            vec = np.array(values, dtype=np.float64)
        except ValueError:
            skipped += 1
            continue
        if not np.isfinite(vec).all():
            skipped += 1
            continue
        if token in index:
            # keep first occurrence, common GloVe practice
            skipped += 1
            continue
        index[token] = len(tokens)
        tokens.append(token)
        cols.append(vec)
        if limit is not None and len(tokens) >= limit:
            break

    if not tokens:
        raise DataError(f"no valid embedding rows in {path}")
    if total and bad_dim > total / 2:
        raise DataError(
            f"inconsistent dimension on {bad_dim}/{total} rows of {path}"
        )
    if skipped:
        logger.warning("skipped %d malformed/duplicate rows in %s", skipped, path)

    vectors = np.stack(cols, axis=1)
    if normalize:
        norms = np.linalg.norm(vectors, axis=0)
        norms[norms == 0] = 1.0
        vectors = vectors / norms
    return EmbeddingSet(dim=dim, tokens=tokens, vectors=vectors,
                        token_index=index, skipped=skipped)


def save_embeddings(emb: EmbeddingSet, path) -> None:
    """Write an embedding set back to text with 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, token in enumerate(emb.tokens):
            values = " ".join(f"{v:.17g}" for v in emb.vectors[:, i])
            fh.write(f"{token} {values}\n")


def _split_pair(line: str) -> list[str]:
    if "\t" in line:
        return line.split("\t")
    return line.split(" ")


def load_lexicon(path, src: EmbeddingSet, tgt: EmbeddingSet) -> tuple[Lexicon, int]:
    """Load a `source<TAB>target` lexicon, resolving tokens to indices.

    Lines whose source or target is absent from the corresponding
    embedding set, or that duplicate an earlier pair exactly, are skipped.

    Returns:
        (Lexicon, skipped_count); file order is preserved.

    Raises:
        DataError: unreadable file or zero resolvable pairs.
    """
    pairs: list[tuple[int, int]] = []
    src_tokens: list[str] = []
    tgt_tokens: list[str] = []
    seen: set[tuple[int, int]] = set()
    skipped = 0
    for line in _read_lines(path, "lexicon file"):
        line = line.strip()
        if not line:
            continue
        fields = [f for f in _split_pair(line) if f]
        if len(fields) != 2:
            skipped += 1
            continue
        s, t = fields
        if s not in src.token_index or t not in tgt.token_index:
            skipped += 1
            continue
        pair = (src.token_index[s], tgt.token_index[t])
        if pair in seen:
            skipped += 1
            continue
        seen.add(pair)
        pairs.append(pair)
        src_tokens.append(s)
        tgt_tokens.append(t)

    if not pairs:
        raise DataError(f"zero resolvable pairs in {path}")
    return Lexicon(pairs=pairs, src_tokens=src_tokens, tgt_tokens=tgt_tokens), skipped


def build_identity_lexicon(src: EmbeddingSet, tgt: EmbeddingSet,
                           stoplist: set[str] | None = None) -> Lexicon:
    """Pair every token shared by both vocabularies with itself.

    Order follows the source vocabulary; stop-listed tokens are excluded.

    Raises:
        DataError: the (filtered) vocabulary intersection is empty.
    """
    stoplist = stoplist or set()
    pairs = []
    toks = []
    for i, token in enumerate(src.tokens):
        if token in stoplist or token not in tgt.token_index:
            continue
        pairs.append((i, tgt.token_index[token]))
        toks.append(token)
    if not pairs:
        raise DataError("empty vocabulary intersection for identity lexicon")
    return Lexicon(pairs=pairs, src_tokens=toks, tgt_tokens=list(toks))


def gather_pairs(lex: Lexicon, src: EmbeddingSet, tgt: EmbeddingSet):
    """Stack the lexicon's pairs into matrices X, Y (one column per pair)."""
    if not lex.pairs:
        raise ValueError("lexicon is empty")
    if src.dim != tgt.dim:
        raise DataError(
            f"embedding dimension mismatch: src d={src.dim}, tgt d={tgt.dim}"
        )
    src_idx = [i for i, _ in lex.pairs]
    tgt_idx = [j for _, j in lex.pairs]
    return src.vectors[:, src_idx].copy(), tgt.vectors[:, tgt_idx].copy()


def load_stoplist(path) -> set[str]:
    """Load a stop-list, one token per line."""
    return {line.strip() for line in _read_lines(path, "stop-list") if line.strip()}


def load_frequency_table(path) -> dict[str, float]:
    """Load a `token<TAB>relative_frequency` table.

    Raises:
        DataError: unreadable file, a malformed line or a frequency
            outside [0, 1].
    """
    table: dict[str, float] = {}
    for line in _read_lines(path, "frequency table"):
        line = line.strip()
        if not line:
            continue
        fields = [f for f in _split_pair(line) if f]
        if len(fields) != 2:
            raise DataError(f"malformed frequency line: {line!r}")
        token, raw = fields
        try:
            freq = float(raw)
        except ValueError:
            raise DataError(f"malformed frequency for {token!r}: {raw!r}") from None
        if not 0.0 <= freq <= 1.0:
            raise DataError(f"frequency out of [0,1] for {token!r}: {freq}")
        table[token] = freq
    return table
