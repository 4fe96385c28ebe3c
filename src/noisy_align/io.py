"""Plain-text I/O for embedding sets, lexicons, stop-lists and frequency tables.

Embedding files are `token v1 v2 ... vd`, one per line, with an optional
word2vec-style `n d` header line that is auto-detected. Values are parsed
in chunks of `PARSE_CHUNK_ROWS` rows, one C-level conversion per chunk,
and the accepted number syntax is exactly Python `float()`'s. A row is
skipped, and counted, when its token holds a tab, it has the wrong number
of values, a value that is not a number or not finite, or a token already
kept. Lexicons are `source<TAB>target` (single space accepted as
fallback). Stop-lists are one token per line; frequency tables are
`token<TAB>float`, one line per token.
Both two-column files follow one rule (`_field_lines`): a stripped line
is split at its tabs, or at single spaces when it holds no tab, and empty
fields are dropped. Blank lines are ignored; a line left with other than
two fields is skipped in a lexicon and a DataError in a frequency table.

`_unit_columns` is the one column normalization: `--normalize`, the
retrieval index, each block of retrieval queries and each block of the
shift ranking's pairs, so every cosine is a dot product of its columns.

`load_pairs` is the one path from files to a command's pairs: `align`,
`clean-lexicon`, `evaluate` and `diachronic` read both embedding sets
through it, and it decides how long each set lives.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _cache

# Embedding rows whose values one `np.loadtxt` call converts.
PARSE_CHUNK_ROWS = 1024

# Column norm below which squares that fall under the normal float64 range
# can cost `np.linalg.norm` precision.
_NORM_FLOOR = np.sqrt(np.finfo(np.float64).tiny) / np.finfo(np.float64).eps

# Columns per block of a pass over a d x n matrix (`_column_blocks`): the
# EM fit and the shift ranking hold one block of temporaries (2.4 MB at
# d=300; blocks of 256 or 512 made the fit slower), `_unit_columns` the
# squares of a quarter of it.
_BLOCK_COLS = 1024
_NORM_BLOCK_COLS = 256

# Characters `np.loadtxt` strips from around a number but `float()` refuses
# (it also breaks lines at `\n` and `\r`, which a line never holds); a
# chunk holding one is parsed row by row.
_LOADTXT_ONLY = "\x1c\x1d\x1e\x1f"


class DataError(Exception):
    """Raised when an input file is unreadable, empty or malformed."""


@dataclass
class EmbeddingSet:
    """A vocabulary plus a d x n matrix whose column i embeds tokens[i];
    `dim` and `token_index` are derived from them."""

    tokens: list[str]
    vectors: np.ndarray
    skipped: int = 0
    token_index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        n = len(self.tokens)
        if self.vectors.ndim != 2 or self.dim < 1 or self.vectors.shape[1] != n:
            raise ValueError(f"vectors must be a d x {n} matrix with d >= 1, "
                             f"one column per token, got shape {self.vectors.shape}")
        if not np.isfinite(self.vectors).all():
            raise ValueError("embedding matrix contains non-finite values")
        self.token_index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.token_index) != len(self.tokens):
            raise ValueError("tokens are not unique")

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def n(self) -> int:
        return len(self.tokens)


@dataclass
class Lexicon:
    """Ordered (src_idx, tgt_idx) pairs defining the supervision set.

    The indices name columns of the source and target embedding sets, whose
    `tokens` name the pairs. A source index may repeat with different
    targets (multi-translation); exact duplicate pairs are rejected at load
    time.
    """

    pairs: list[tuple[int, int]]

    def __len__(self) -> int:
        return len(self.pairs)


def _read_lines(path, what: str):
    """Stream a UTF-8 file's lines, broken only at newlines (not at `\\x0c`,
    `\\x85`, ...), without a leading byte-order mark; read and decode errors
    raise DataError naming the file as `what`. It reads every text input:
    this module's four, `--config`, `align.load_matrix` and `mixture.load_model`."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield from fh
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} {path} is not valid UTF-8: {exc}") from exc


def _field_lines(path, what: str):
    """(line, fields) for each non-blank stripped line of a two-column file:
    the fields are split at tabs, or at single spaces when the line holds no
    tab, and empty fields are dropped."""
    for line in _read_lines(path, what):
        line = line.strip()
        if line:
            yield line, [f for f in line.split("\t" if "\t" in line else " ") if f]


def _is_header(fields: list[str]) -> bool:
    # word2vec convention: first line `n d`, exactly two integer tokens
    if len(fields) != 2:
        return False
    try:
        int(fields[0]), int(fields[1])
    except ValueError:
        return False
    return True


def _column_blocks(n: int, width: int = _BLOCK_COLS):
    """The slices of one block of `width` columns each that cover n columns.

    A last block of one column joins the block before it: numpy sums a lone
    column pairwise and a wider block row by row, and BLAS may round a
    one-column product otherwise than a wider one, so this way a column has
    the same bits in every block. n = 0 gives one empty block.
    """
    start = 0
    for stop in [*range(width, n - 1, width), n]:
        yield slice(start, stop)
        start = stop


def _unit_columns(M: np.ndarray) -> np.ndarray:
    """Divide the columns of M, in place, by their Euclidean norms, and
    return those norms; a zero column stays zero and has norm 0. M is
    overwritten, so a caller that must keep its values passes a copy.

    The norms are taken one block of `_NORM_BLOCK_COLS` columns at a time
    (`_column_blocks`), with `np.linalg.norm`'s arithmetic: a block keeps
    M's layout, so its columns are summed as in M. That squares before the
    square root: below `_NORM_FLOOR` squares can fall into the subnormal
    range, so the norm loses precision (a non-zero column below about
    1e-162 gets norm 0), and above about 1e154 it overflows to inf. Such
    non-zero columns are divided by their largest magnitude, in a copy of
    those columns alone, which is normalized in their place; their
    returned norms are the copy's.
    """
    norms = np.empty(M.shape[1])
    with np.errstate(over="ignore"):
        for s in _column_blocks(M.shape[1], _NORM_BLOCK_COLS):
            np.add.reduce(np.square(M[:, s]), axis=0, out=norms[s])
    np.sqrt(norms, out=norms)
    odd = np.flatnonzero((norms < _NORM_FLOOR) | np.isinf(norms))
    peak = np.abs(M[:, odd]).max(axis=0, initial=0.0)
    odd, peak = odd[peak > 0], peak[peak > 0]
    scaled = M[:, odd] / peak
    if odd.size:
        # a largest magnitude of 1 leaves no rescaled column odd
        norms[odd] = _unit_columns(scaled)
    M /= np.where(norms == 0, 1.0, norms)
    M[:, odd] = scaled
    return norms


def _parse_values(tails: list[str], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Convert rows of `dim` space-separated values to a (rows, dim) matrix.

    One `np.loadtxt` call converts the whole chunk. Its number syntax is a
    strict subset of `float()`'s once `_LOADTXT_ONLY` is excluded, so when
    it refuses the chunk, each row is converted on its own by `float()`'s
    rules. Returns (values, valid): valid marks the rows that are numbers
    and finite.
    """
    values = None
    text = "".join(tails)
    if not any(c in text for c in _LOADTXT_ONLY):
        try:
            values = np.loadtxt(tails, dtype=np.float64, delimiter=" ",
                                comments=None, ndmin=2)
        except ValueError:
            pass
    if values is None:
        values = np.zeros((len(tails), dim))
        for i, tail in enumerate(tails):
            try:
                values[i] = np.array(tail.split(" "), dtype=np.float64)
            except ValueError:
                values[i, 0] = np.nan  # not a number: invalid like a NaN
    return values, np.isfinite(values).all(axis=1)


def _keep_new_rows(chunk_tokens: list[str], chunk_tails: list[str], dim: int,
                   tokens: list[str], seen: set[str], blocks: list[np.ndarray]) -> None:
    """Append the chunk's valid rows with a new token, in row order.

    A token keeps its first valid row, common GloVe practice.
    """
    values, valid = _parse_values(chunk_tails, dim)
    kept = []
    for row, (token, ok) in enumerate(zip(chunk_tokens, valid.tolist())):
        if ok and token not in seen:
            seen.add(token)
            tokens.append(token)
            kept.append(row)
    blocks.append(values if len(kept) == len(chunk_tokens) else values[kept])


def load_embeddings(path, limit: int | None = None, normalize: bool = False) -> EmbeddingSet:
    """Load an embedding set from a text file.

    Values are parsed in chunks of `PARSE_CHUNK_ROWS` rows, one C-level
    conversion per chunk; the accepted number syntax is exactly Python
    `float()`'s. A later load of the same unchanged file reads the parse
    back from a per-user cache (README, "Embedding cache").

    Args:
        path: file with `token v1 ... vd` lines (optional `n d` header).
        limit: keep only the first `limit` valid rows (at least 1); the
            rest of the file is not read.
        normalize: scale every non-zero vector to unit Euclidean norm.

    Returns:
        EmbeddingSet; a row is skipped and counted in ``skipped`` when its
        token holds a tab (no lexicon or frequency table could name it),
        its number of values differs from the first row's, a value is not
        a number or not finite, or its token was kept before. A line that,
        without its trailing whitespace, holds no space or starts with
        one is ignored.

    Raises:
        DataError: unreadable file, zero valid rows, or inconsistent
            dimension on more than half of the rows.
        ValueError: ``limit`` below 1.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    emb = _cache.parsed(path, limit, _parse_embeddings)
    if emb.skipped:
        warnings.warn(f"skipped {emb.skipped} malformed/duplicate rows in {path}",
                      stacklevel=2)
    if normalize:  # the matrix is this load's own; a cache entry is written by now
        _unit_columns(emb.vectors)
    return emb


def _parse_embeddings(path, limit: int | None) -> tuple[list[str], np.ndarray, int]:
    """`load_embeddings`'s text parse: (tokens, d x n vectors, skipped).

    Every row read is kept or skipped, so the rows skipped are the rows
    read (`total`) minus the rows kept.
    """
    dim = None
    tokens: list[str] = []
    seen: set[str] = set()
    blocks: list[np.ndarray] = []
    chunk_tokens: list[str] = []
    chunk_tails: list[str] = []
    # with a limit, a chunk holds at most the rows still needed, so reading
    # stops right after the row that reaches the limit
    want = PARSE_CHUNK_ROWS if limit is None else min(PARSE_CHUNK_ROWS, limit)
    bad_dim = 0
    total = 0
    for lineno, line in enumerate(_read_lines(path, "embedding file")):
        if lineno == 0 and _is_header(line.split()):
            continue
        token, sep, tail = line.rstrip().partition(" ")
        if not sep or not token:
            continue
        total += 1
        if "\t" in token:
            continue
        width = tail.count(" ") + 1
        if dim is None:
            dim = width
        if width != dim:
            bad_dim += 1
            continue
        chunk_tokens.append(token)
        chunk_tails.append(tail)
        if len(chunk_tails) == want:
            _keep_new_rows(chunk_tokens, chunk_tails, dim, tokens, seen, blocks)
            chunk_tokens, chunk_tails = [], []
            if limit is not None:
                if len(tokens) == limit:
                    break
                want = min(PARSE_CHUNK_ROWS, limit - len(tokens))
    if chunk_tails:
        _keep_new_rows(chunk_tokens, chunk_tails, dim, tokens, seen, blocks)

    if not tokens:
        raise DataError(f"no valid embedding rows in {path}")
    if total and bad_dim > total / 2:
        raise DataError(
            f"inconsistent dimension on {bad_dim}/{total} rows of {path}"
        )

    vectors = np.empty((dim, len(tokens)))
    np.concatenate(blocks, out=vectors.T)  # the blocks' rows are its columns
    return tokens, vectors, total - len(tokens)


def save_embeddings(emb: EmbeddingSet, path) -> None:
    """Write an embedding set back to text with 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, token in enumerate(emb.tokens):
            values = " ".join(f"{v:.17g}" for v in emb.vectors[:, i])
            fh.write(f"{token} {values}\n")


def load_lexicon(path, src: EmbeddingSet, tgt: EmbeddingSet) -> tuple[Lexicon, int]:
    """Load a `source<TAB>target` lexicon, resolving tokens to indices.

    Lines whose source or target is absent from the corresponding
    embedding set, or that duplicate an earlier pair exactly, are skipped.

    Returns:
        (Lexicon, skipped_count): the pairs in order of first occurrence,
        and the non-blank lines read minus the pairs kept.

    Raises:
        DataError: unreadable file or zero resolvable pairs.
    """
    pairs: dict[tuple[int, int], None] = {}  # a repeated pair keeps its first place
    for read, (_, fields) in enumerate(_field_lines(path, "lexicon file"), 1):
        if len(fields) == 2 and fields[0] in src.token_index and fields[1] in tgt.token_index:
            pairs[src.token_index[fields[0]], tgt.token_index[fields[1]]] = None
    if not pairs:
        raise DataError(f"zero resolvable pairs in {path}")
    return Lexicon(pairs=list(pairs)), read - len(pairs)


def build_identity_lexicon(src: EmbeddingSet, tgt: EmbeddingSet,
                           stoplist: set[str] | None = None) -> Lexicon:
    """Pair every token shared by both vocabularies with itself.

    Order follows the source vocabulary; stop-listed tokens are excluded.

    Raises:
        DataError: the (filtered) vocabulary intersection is empty.
    """
    stoplist = stoplist or set()
    pairs = [(i, tgt.token_index[token]) for i, token in enumerate(src.tokens)
             if token not in stoplist and token in tgt.token_index]
    if not pairs:
        raise DataError("empty vocabulary intersection for identity lexicon")
    return Lexicon(pairs=pairs)


def _check_dims(src: EmbeddingSet, tgt: EmbeddingSet) -> None:
    """DataError unless both embedding sets have the same dimension."""
    if src.dim != tgt.dim:
        raise DataError(
            f"embedding dimension mismatch: src d={src.dim}, tgt d={tgt.dim}"
        )


def _pair_columns(lex: Lexicon, side: int, emb: EmbeddingSet) -> np.ndarray:
    """Column `pair[side]` of `emb` for each lexicon pair, in C order."""
    idx = np.fromiter((pair[side] for pair in lex.pairs), dtype=np.intp, count=len(lex))
    # `take` gives a C-order result in one allocation; `vectors[:, idx]`
    # is F-order and takes a second copy to become C-order
    return np.take(emb.vectors, idx, axis=1)


def load_pairs(src_path, tgt_path, lexicon, test_lexicon=None, *,
               limit: int | None = None, normalize: bool = False):
    """Load both embedding sets and keep of them only what a command reads.

    `lexicon(src, tgt)` resolves the training pairs as (Lexicon, skipped),
    for instance `load_lexicon` of a file or an identity lexicon; None
    gathers no pairs. `test_lexicon` names a lexicon file for the test
    metrics. Both sets are loaded (`limit` and `normalize` as in
    `load_embeddings`), both lexicons resolved and the dimensions checked
    before any column is gathered. Of the source set only X, the pairs'
    source tokens and the test queries are kept: each test-lexicon source
    once, in order of first use. It is freed before Y is gathered, and the
    target set is kept only when a test lexicon needs it for retrieval.

    Returns:
        (X, Y, names, skipped, test): X and Y hold one column per training
        pair; names is (sources, targets), the tokens of each pair's two
        sides, one list when they are alike (an identity lexicon); skipped
        is the lexicon's. X, Y and names are None without `lexicon`. test
        is (the test lexicon re-indexed to the queries, the queries, the
        target set), or None without `test_lexicon`.
    """
    src = load_embeddings(src_path, limit, normalize)
    tgt = load_embeddings(tgt_path, limit, normalize)
    lex, skipped = lexicon(src, tgt) if lexicon else (None, 0)
    test = load_lexicon(test_lexicon, src, tgt)[0] if test_lexicon else None
    _check_dims(src, tgt)
    if test is not None:
        first = {s: i for i, s in enumerate(dict.fromkeys(s for s, _ in test.pairs))}
        queries = EmbeddingSet(tokens=[src.tokens[s] for s in first],
                               vectors=np.take(src.vectors, list(first), axis=1))
        test = Lexicon(pairs=[(first[s], t) for s, t in test.pairs]), queries, tgt
    X = Y = names = None
    if lex is not None:
        X = _pair_columns(lex, 0, src)
        sources = [src.tokens[s] for s, _ in lex.pairs]
        targets = [tgt.tokens[t] for _, t in lex.pairs]
        names = sources, sources if targets == sources else targets
        del src
        Y = _pair_columns(lex, 1, tgt)
    return X, Y, names, skipped, test


def gather_pairs(lex: Lexicon, src: EmbeddingSet, tgt: EmbeddingSet):
    """Stack the lexicon's pairs into matrices X, Y (one column per pair)."""
    if not lex.pairs:
        raise ValueError("lexicon is empty")
    _check_dims(src, tgt)
    return _pair_columns(lex, 0, src), _pair_columns(lex, 1, tgt)


def load_stoplist(path) -> set[str]:
    """Load a stop-list, one token per line."""
    return {line.strip() for line in _read_lines(path, "stop-list") if line.strip()}


def load_frequency_table(path) -> dict[str, float]:
    """Load a `token<TAB>relative_frequency` table.

    Raises:
        DataError: unreadable file, a malformed line, a frequency
            outside [0, 1] or a token listed twice.
    """
    table: dict[str, float] = {}
    for line, fields in _field_lines(path, "frequency table"):
        if len(fields) != 2:
            raise DataError(f"malformed frequency line: {line!r}")
        token, raw = fields
        try:
            freq = float(raw)
        except ValueError:
            raise DataError(f"malformed frequency for {token!r}: {raw!r}") from None
        if not 0.0 <= freq <= 1.0:
            raise DataError(f"frequency out of [0,1] for {token!r}: {freq}")
        if token in table:
            raise DataError(f"repeated frequency for {token!r}")
        table[token] = freq
    return table
