import logging
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from noisy_align import io as nio
from noisy_align.io import (
    DataError,
    EmbeddingSet,
    Lexicon,
    build_identity_lexicon,
    gather_pairs,
    load_embeddings,
    load_frequency_table,
    load_lexicon,
    load_stoplist,
    save_embeddings,
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def make_set(tokens, vectors):
    vectors = np.asarray(vectors, dtype=float)
    return EmbeddingSet(tokens=list(tokens), vectors=vectors)


def row_loop_load(path, limit=None):
    """The loader as one `np.array` per row: the oracle for the bulk parser."""
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    dim = None
    tokens, cols, index = [], [], {}
    skipped = bad_dim = total = 0
    for lineno, line in enumerate(nio._read_lines(path, "embedding file")):
        if lineno == 0 and nio._is_header(line.split()):
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
        if not np.isfinite(vec).all() or token in index:
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
        raise DataError(f"inconsistent dimension on {bad_dim}/{total} rows of {path}")
    if skipped:
        nio.logger.warning("skipped %d malformed/duplicate rows in %s", skipped, path)
    return EmbeddingSet(tokens=tokens, vectors=np.stack(cols, axis=1), skipped=skipped)


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def load_outcome(load, path, limit=None):
    """Everything a loader shows: its result or error, its warnings and
    the number of lines it read."""
    read = nio._read_lines
    lines = []

    def counted(*args):
        for line in read(*args):
            lines.append(line)
            yield line

    records = _Records()
    nio.logger.addHandler(records)
    try:
        with mock.patch.object(nio, "_read_lines", counted):
            emb = load(path, limit=limit)
        shown = (emb.dim, emb.tokens, emb.token_index, emb.skipped,
                 emb.vectors.shape, emb.vectors.tobytes())
    except (DataError, ValueError) as exc:
        shown = (type(exc), str(exc))
    finally:
        nio.logger.removeHandler(records)
    return shown, records.messages, len(lines)


class TestEmbeddingSet:
    def test_dim_and_index_are_derived(self):
        emb = make_set(["a", "b", "c"], np.arange(6.0).reshape(2, 3))
        assert emb.dim == emb.vectors.shape[0] == 2
        assert emb.token_index == {"a": 0, "b": 1, "c": 2}
        assert emb.vectors[:, emb.token_index["b"]].tolist() == [1.0, 4.0]

    @pytest.mark.parametrize("name,value", [("dim", 2), ("token_index", {"a": 1, "b": 0})])
    def test_derived_fields_cannot_be_passed(self, name, value):
        with pytest.raises(TypeError):
            EmbeddingSet(tokens=["a", "b"], vectors=np.eye(2), **{name: value})

    @pytest.mark.parametrize("vectors", [np.zeros(2), np.zeros((0, 2)), np.zeros((2, 3))],
                             ids=["1-D", "d=0", "n-mismatch"])
    def test_vectors_must_be_d_by_n(self, vectors):
        with pytest.raises(ValueError, match="d x 2 matrix"):
            EmbeddingSet(tokens=["a", "b"], vectors=vectors)

    def test_tokens_must_be_unique(self):
        with pytest.raises(ValueError, match="unique"):
            EmbeddingSet(tokens=["a", "a"], vectors=np.eye(2))

    def test_values_must_be_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            EmbeddingSet(tokens=["a"], vectors=np.array([[np.nan]]))


class TestLoadEmbeddings:
    def test_minimal_file(self, tmp_path):
        emb = load_embeddings(write(tmp_path, "e.txt", "a 1 0\nb 0 1\n"))
        assert emb.dim == 2 and emb.n == 2
        assert emb.tokens == ["a", "b"]
        assert np.array_equal(emb.vectors, np.eye(2))

    def test_header_consumed(self, tmp_path):
        emb = load_embeddings(write(tmp_path, "e.txt", "2 2\na 1 0\nb 0 1\n"))
        assert emb.tokens == ["a", "b"]
        assert emb.dim == 2

    def test_limit(self, tmp_path):
        emb = load_embeddings(write(tmp_path, "e.txt", "a 1 0\nb 0 1\nc 1 1\n"),
                              limit=2)
        assert emb.tokens == ["a", "b"]

    def test_bad_rows_skipped_and_counted(self, tmp_path):
        text = "a 1 0\nbadrow 1\nnan_row nan 0\nb 0 1\n"
        emb = load_embeddings(write(tmp_path, "e.txt", text))
        assert emb.tokens == ["a", "b"]
        assert emb.skipped == 2

    def test_duplicate_token_keeps_first(self, tmp_path):
        emb = load_embeddings(write(tmp_path, "e.txt", "a 1 0\na 5 5\nb 0 1\n"))
        assert emb.tokens == ["a", "b"]
        assert np.array_equal(emb.vectors[:, emb.token_index["a"]], [1, 0])
        assert emb.skipped == 1

    def test_zero_valid_rows(self, tmp_path):
        with pytest.raises(DataError):
            load_embeddings(write(tmp_path, "e.txt", ""))

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(DataError):
            load_embeddings(tmp_path / "missing.txt")

    def test_mostly_inconsistent_dim_is_fatal(self, tmp_path):
        text = "a 1 0\nb 1\nc 2\nd 3\n"
        with pytest.raises(DataError, match="inconsistent dimension"):
            load_embeddings(write(tmp_path, "e.txt", text))

    def test_normalize_flag(self, tmp_path):
        emb = load_embeddings(write(tmp_path, "e.txt", "a 3 4\n"), normalize=True)
        assert np.linalg.norm(emb.vectors[:, emb.token_index["a"]]) == pytest.approx(1.0)

    def test_header_skipped_only_on_first_line(self, tmp_path):
        emb = load_embeddings(write(tmp_path, "e.txt", "2 2\na 1 0\n2 2\nb 0 1\n"),
                              limit=2)
        assert emb.tokens == ["a", "b"]
        assert emb.skipped == 1  # the second `2 2` is a row of the wrong width

    def test_only_newlines_break_lines(self, tmp_path):
        # str.splitlines would also break at \x0c, \x1c-\x1e, \x85, U+2028
        text = "a\x0cb 1 2\nc\u2028d 3 4\r\ne\x85 5 6\n"
        emb = load_embeddings(write(tmp_path, "e.txt", text))
        assert emb.tokens == ["a\x0cb", "c\u2028d", "e\x85"]

    def test_limit_below_one_rejected(self, tmp_path):
        path = write(tmp_path, "e.txt", "a 1 0\nb 0 1\n")
        for limit in (0, -1):
            with pytest.raises(ValueError, match="limit"):
                load_embeddings(path, limit=limit)

    def test_limit_stops_reading(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_bytes(b"a 1 0\nb 0 1\n" + b"c 1 1\n" * 100_000 + b"\xff 1 1\n")
        assert load_embeddings(path, limit=2).tokens == ["a", "b"]
        with pytest.raises(DataError, match="UTF-8"):
            load_embeddings(path)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        emb = make_set(["x", "y", "z"], rng.standard_normal((5, 3)))
        path = tmp_path / "out.txt"
        save_embeddings(emb, path)
        loaded = load_embeddings(path)
        assert loaded.tokens == emb.tokens
        assert np.array_equal(loaded.vectors, emb.vectors)


    def test_limit_reads_no_further_than_the_row_loop(self, tmp_path):
        # the invalid second row leaves a chunk one row short of the limit
        path = write(tmp_path, "e.txt", "a 1 0\nbad x 0\nb 0 1\nc 1 1\nd 0 0\n")
        bulk = load_outcome(load_embeddings, path, limit=2)
        assert bulk == load_outcome(row_loop_load, path, limit=2)
        assert bulk[0][1] == ["a", "b"] and bulk[2] == 3

    def test_duplicate_of_an_invalid_row_is_kept(self, tmp_path):
        emb = load_embeddings(write(tmp_path, "e.txt", "a nan 0\na 1 0\nb 0 1\n"))
        assert emb.tokens == ["a", "b"] and emb.skipped == 1
        assert np.array_equal(emb.vectors[:, emb.token_index["a"]], [1, 0])

    def test_number_syntax_is_float_syntax(self, tmp_path):
        # float() takes underscores and non-ASCII digits, which np.loadtxt
        # refuses; np.loadtxt strips \x1c-\x1f, which float() refuses
        text = "a 1_0 \u0661\nb 1\x1c 2\nc \x1f3 4\nd 5 6\x85\n"
        emb = load_embeddings(write(tmp_path, "e.txt", text))
        assert emb.tokens == ["a", "d"] and emb.skipped == 2
        assert np.array_equal(emb.vectors, [[10.0, 5.0], [1.0, 6.0]])

    def test_normalize_tiny_and_huge_vectors(self, tmp_path):
        text = "a 1e-170 0\nb 3e-320 4e-320\nc 1e300 -1e300\nd 0 0\n"
        emb = load_embeddings(write(tmp_path, "e.txt", text), normalize=True)
        assert np.array_equal(emb.vectors[:, :2], [[1.0, 0.6], [0.0, 0.8]])
        assert np.linalg.norm(emb.vectors[:, emb.token_index["c"]]) == pytest.approx(1.0, abs=1e-15)
        assert np.array_equal(emb.vectors[:, emb.token_index["d"]], [0, 0])


# fields float() reads (also some np.loadtxt refuses or reads differently),
# fields neither reads, and an empty field from a double space
FIELDS = ["0", "1", "-2.5", "3e-2", ".5", "1e-320", "nan", "-inf", "1e400", "1_0",
          "\u0661", "\u0663.\u0665", "1\x85", "\t1", "1\x1c", "\x1f2", "1\x0c",
          "\u20281", "", "x", "0x1", "1\x00", "1e", "1,5", '"1"', "#1"]
TOKENS = ["a", "b", "c", "d", "e\u0301", "a\x0cb", "7"]


@st.composite
def embedding_text(draw):
    dim = draw(st.integers(1, 3))
    field = st.one_of(st.sampled_from(FIELDS), st.floats().map(repr))
    right = st.lists(field, min_size=dim, max_size=dim)
    width = st.lists(field, max_size=4)
    row = st.builds(lambda tok, vals, end: " ".join([tok, *vals]) + end,
                    st.sampled_from(TOKENS), st.one_of(right, right, width),
                    st.sampled_from(["", " ", "\t", "\x85", "\x1c"]))
    ignored = st.sampled_from(["", "alone", " a 1 2", "\x0c", "  "])
    lines = draw(st.lists(st.one_of(row, row, row, ignored), max_size=14))
    header = draw(st.sampled_from([[], [f"5 {dim}"], ["2 2"], ["x 1"]]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(header + lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=400, deadline=None)
@given(text=embedding_text(), limit=st.one_of(st.none(), st.integers(1, 5)),
       chunk=st.sampled_from([1, 2, 3, nio.PARSE_CHUNK_ROWS]))
@example(text="a nan 0\na 1 0\nb 0 1\n", limit=1, chunk=2)
@example(text="a 1\nb 1 2\nc 1 2\nd 1 2\n", limit=None, chunk=2)
def test_bulk_loader_matches_row_loop(text, limit, chunk):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "e.txt"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(nio, "PARSE_CHUNK_ROWS", chunk):
            bulk = load_outcome(load_embeddings, path, limit)
        assert bulk == load_outcome(row_loop_load, path, limit)


class TestLexicon:
    @pytest.fixture
    def spaces(self):
        src = make_set(["dog", "good", "new"], np.eye(3))
        tgt = make_set(["cane", "cani", "buon"], np.eye(3))
        return src, tgt

    @pytest.mark.parametrize("name", ["src_tokens", "tgt_tokens"])
    def test_holds_only_pairs(self, name):
        # the embedding sets' tokens name the pairs
        with pytest.raises(TypeError):
            Lexicon(pairs=[(0, 0)], **{name: ["dog"]})

    def test_multi_translation(self, tmp_path, spaces):
        src, tgt = spaces
        lex, skipped = load_lexicon(
            write(tmp_path, "l.tsv", "dog\tcane\ndog\tcani\n"), src, tgt)
        assert skipped == 0
        assert lex.pairs == [(0, 0), (0, 1)]

    def test_oov_skipped(self, tmp_path, spaces):
        src, tgt = spaces
        lex, skipped = load_lexicon(
            write(tmp_path, "l.tsv", "dog\tcane\ndog\tmissing\n"), src, tgt)
        assert len(lex) == 1 and skipped == 1

    def test_exact_duplicate_rejected(self, tmp_path, spaces):
        src, tgt = spaces
        lex, skipped = load_lexicon(
            write(tmp_path, "l.tsv", "dog\tcane\ndog\tcane\n"), src, tgt)
        assert len(lex) == 1 and skipped == 1

    def test_space_separator_fallback(self, tmp_path, spaces):
        src, tgt = spaces
        lex, _ = load_lexicon(write(tmp_path, "l.txt", "good buon\n"), src, tgt)
        assert lex.pairs == [(1, 2)]

    def test_empty_file_errors(self, tmp_path, spaces):
        src, tgt = spaces
        with pytest.raises(DataError, match="zero resolvable pairs"):
            load_lexicon(write(tmp_path, "l.tsv", ""), src, tgt)

    def test_order_preserved(self, tmp_path, spaces):
        src, tgt = spaces
        text = "new\tbuon\ndog\tcane\ngood\tcani\n"
        lex, _ = load_lexicon(write(tmp_path, "l.tsv", text), src, tgt)
        assert [src.tokens[i] for i, _ in lex.pairs] == ["new", "dog", "good"]


class TestIdentityLexicon:
    def test_full_overlap(self):
        src = make_set(["a", "b", "c"], np.eye(3))
        lex = build_identity_lexicon(src, src)
        assert lex.pairs == [(0, 0), (1, 1), (2, 2)]

    def test_stoplist_empties_intersection(self):
        src = make_set(["a", "b"], np.eye(2))
        tgt = make_set(["b", "z"], np.eye(2))
        with pytest.raises(DataError, match="empty"):
            build_identity_lexicon(src, tgt, stoplist={"b"})

    def test_partial_overlap_source_order(self):
        src = make_set(["u", "v", "w"], np.eye(3))
        tgt = make_set(["w", "u"], np.array([[1, 0], [0, 1], [0, 0]], float))
        lex = build_identity_lexicon(src, tgt, stoplist={"w"})
        assert [src.tokens[i] for i, _ in lex.pairs] == ["u"]
        assert lex.pairs == [(0, 1)]


class TestGatherPairs:
    def test_single_pair(self):
        from noisy_align.io import Lexicon
        src = make_set(["a"], [[1.0], [2.0]])
        tgt = make_set(["b"], [[3.0], [4.0]])
        X, Y = gather_pairs(Lexicon(pairs=[(0, 0)]), src, tgt)
        assert X.shape == (2, 1) and Y.shape == (2, 1)
        assert np.array_equal(Y[:, 0], [3.0, 4.0])

    def test_duplicate_source_duplicates_column(self):
        from noisy_align.io import Lexicon
        src = make_set(["a", "b"], np.array([[1.0, 2.0], [3.0, 4.0]]))
        lex = Lexicon(pairs=[(0, 0), (0, 1)])
        X, Y = gather_pairs(lex, src, src)
        assert np.array_equal(X[:, 0], X[:, 1])

    def test_nine_pair_lexicon(self):
        from noisy_align.io import Lexicon
        rng = np.random.default_rng(0)
        src = make_set([f"s{i}" for i in range(5)], rng.standard_normal((4, 5)))
        tgt = make_set([f"t{i}" for i in range(5)], rng.standard_normal((4, 5)))
        pairs = [(i, j) for i in range(3) for j in range(3)]
        X, Y = gather_pairs(Lexicon(pairs=pairs), src, tgt)
        assert X.shape[1] == 9 and Y.shape[1] == 9

    def test_dim_mismatch(self):
        from noisy_align.io import Lexicon
        src = make_set(["a"], [[1.0], [2.0]])
        tgt = make_set(["a"], [[1.0], [2.0], [3.0]])
        with pytest.raises(DataError, match="dimension mismatch"):
            gather_pairs(Lexicon(pairs=[(0, 0)]), src, tgt)


def test_load_stoplist(tmp_path):
    assert load_stoplist(write(tmp_path, "s.txt", "the\na\n\nof\n")) == {"the", "a", "of"}


def test_frequency_table(tmp_path):
    table = load_frequency_table(write(tmp_path, "f.tsv", "dog\t0.001\ncat\t0.5\n"))
    assert table == {"dog": 0.001, "cat": 0.5}


def test_frequency_out_of_range(tmp_path):
    with pytest.raises(DataError, match="out of"):
        load_frequency_table(write(tmp_path, "f.tsv", "dog\t1.5\n"))


SPACES = (make_set(["a\x0cb", "c"], np.eye(2)), make_set(["d", "e"], np.eye(2)))


@pytest.mark.parametrize("load", [load_embeddings, load_stoplist, load_frequency_table,
                                  lambda path: load_lexicon(path, *SPACES)])
def test_invalid_utf8_is_data_error(tmp_path, load):
    path = tmp_path / "f.txt"
    path.write_bytes(b"a\tb 0.5\n\xff\xfe\n")
    with pytest.raises(DataError, match="UTF-8"):
        load(path)


def test_lexicon_and_frequency_tokens_keep_form_feed(tmp_path):
    lex, skipped = load_lexicon(write(tmp_path, "l.tsv", "a\x0cb\te\nc\td\n"), *SPACES)
    assert [SPACES[0].tokens[i] for i, _ in lex.pairs] == ["a\x0cb", "c"] and skipped == 0
    table = load_frequency_table(write(tmp_path, "f.tsv", "a\x0cb\t0.5\n"))
    assert table == {"a\x0cb": 0.5}


def test_malformed_frequency_is_data_error(tmp_path):
    with pytest.raises(DataError, match="malformed frequency"):
        load_frequency_table(write(tmp_path, "f.tsv", "a\tzz\n"))
