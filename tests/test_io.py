import io
import logging
import os
import re
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from noisy_align import _cache, cli, io as nio
from noisy_align.align import load_matrix
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
from noisy_align.mixture import load_model


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


def backdate(path, seconds=60):
    """Set a file's mtime `seconds` into the past, beyond the cache's
    racy-file window."""
    old = time.time_ns() - seconds * 10**9
    os.utime(path, ns=(old, old))


def declare_shape(entry, index, shape):
    """Rewrite the header of a cache entry's record `index` (0 is the
    stamp) to declare `shape`, keeping every data byte."""
    fmt = np.lib.format
    whole = entry.read_bytes()
    with open(entry, "rb") as fh:
        for _ in range(index):
            fmt.read_array(fh)
        start = fh.tell()
        fmt.read_magic(fh)
        _, fortran, dtype = fmt.read_array_header_1_0(fh)
        data = fh.tell()
    head = io.BytesIO()
    fmt.write_array_header_1_0(head, {"descr": fmt.dtype_to_descr(dtype),
                                      "fortran_order": fortran, "shape": shape})
    entry.write_bytes(whole[:start] + head.getvalue() + whole[data:])


def format_2_entry(stamp, result) -> bytes:
    """An entry as the cache wrote it before its records were `.npy`: one
    header line of decimal fields, the realpath, the tokens, the matrix."""
    tokens, vectors, skipped = result
    real, blob = stamp[-1], "\n".join(tokens).encode("utf-8")
    out = io.BytesIO()
    out.write(b"%d %d %d %d %d %d %d %d %d %d\n"
              % (2, *stamp[1:-1], len(real), skipped, len(blob)) + real + blob)
    np.save(out, vectors, allow_pickle=False)
    return out.getvalue()


class TestEmbeddingCache:
    TEXT = "2 3\na\x0cb 1 0.5 -2\nc\u2028d 3e-2 1 1\nbad 1 x 2\ne\u0301 nan 1 1\n" \
           "e\x85 0 0 1\n"

    @pytest.fixture
    def emb(self, tmp_path):
        path = write(tmp_path, "e.txt", self.TEXT)
        backdate(path)
        return path

    @staticmethod
    def entries(cache_home):
        root = cache_home / "noisy-align"
        return sorted(p.name for p in root.iterdir()) if root.exists() else []

    def test_hit_gives_the_parse_and_its_warning(self, emb, cache_home):
        miss = load_outcome(load_embeddings, emb)
        assert len(self.entries(cache_home)) == 1
        hit = load_outcome(load_embeddings, emb)
        assert miss[2] > 0 and hit[2] == 0  # lines read
        assert hit[:2] == miss[:2]
        assert hit[0][1] == ["a\x0cb", "c\u2028d", "e\x85"] and hit[0][3] == 2
        assert hit[1] == [f"skipped 2 malformed/duplicate rows in {emb}"]

    def test_same_size_rewrite_in_place_misses(self, emb):
        load_embeddings(emb)
        st = os.stat(emb)
        time.sleep(0.05)  # past the timestamp tick of the last change
        with open(emb, "r+b") as fh:
            fh.seek(len("2 3\na\x0cb ".encode()))
            fh.write(b"7")
        os.utime(emb, ns=(st.st_atime_ns, st.st_mtime_ns))  # same size and mtime
        shown, _, lines = load_outcome(load_embeddings, emb)
        assert lines > 0 and shown[4] == (3, 3)
        assert shown[5] == load_outcome(row_loop_load, emb)[0][5]
        assert load_embeddings(emb).vectors[:, 0].tolist() == [7.0, 0.5, -2.0]

    def test_racy_file_gets_no_entry(self, tmp_path, cache_home):
        path = write(tmp_path, "e.txt", self.TEXT)
        for _ in range(2):
            assert load_outcome(load_embeddings, path)[2] > 0
        assert self.entries(cache_home) == []

    @pytest.mark.parametrize("root", ["under-a-file", "no-home"])
    def test_unusable_cache_root_still_loads(self, emb, tmp_path, monkeypatch, root):
        if root == "under-a-file":
            monkeypatch.setenv("XDG_CACHE_HOME", str(emb / "cache"))
        else:
            monkeypatch.delenv("XDG_CACHE_HOME")
            monkeypatch.delenv("HOME", raising=False)
            monkeypatch.setattr("pwd.getpwuid", mock.Mock(side_effect=KeyError))
        for _ in range(2):
            shown, _, lines = load_outcome(load_embeddings, emb)
            assert lines > 0 and shown[1] == ["a\x0cb", "c\u2028d", "e\x85"]
        assert os.listdir(tmp_path) == ["e.txt"]

    def test_truncated_entry_is_parsed_again_and_replaced(self, emb, cache_home):
        miss = load_outcome(load_embeddings, emb)
        [name] = self.entries(cache_home)
        entry = cache_home / "noisy-align" / name
        entry.write_bytes(entry.read_bytes()[:-8])
        again = load_outcome(load_embeddings, emb)
        assert again[2] > 0 and again[:2] == miss[:2]
        assert load_outcome(load_embeddings, emb)[2] == 0

    def test_every_cut_of_an_entry_is_a_miss(self, emb, cache_home):
        miss = load_outcome(load_embeddings, emb)
        [name] = self.entries(cache_home)
        entry = cache_home / "noisy-align" / name
        whole = entry.read_bytes()
        assert whole.startswith(b"\x93NUMPY") and whole.count(b"\x93NUMPY") == 4
        stamp = _cache._stamp(emb, os.stat(emb), None)
        for cut in range(len(whole)):
            entry.write_bytes(whole[:cut])
            try:
                outcome = _cache._read(entry, stamp)
            except ValueError:  # numpy's error for a cut record
                outcome = None
            assert outcome is None, cut
            again = load_outcome(load_embeddings, emb)
            assert again[2] > 0 and again[:2] == miss[:2]
            assert entry.read_bytes() == whole  # replaced by the fresh parse's entry

    def test_records_round_trip_every_stamp_value(self, tmp_path):
        # unsigned dev and ino beyond 2**63, times before 1970, and bytes
        # that the old newline-separated layout could not have held
        stamp = (_cache.FORMAT, 2**64 - 1, 2**63 + 5, 7, 10, -1_500_000_000_123_456_789, -1,
                 b"/a\nb")
        result = (["a\x00b", "c"], np.arange(6.0).reshape(3, 2), 4)
        entry = tmp_path / "entry"
        _cache._write(entry, stamp, result)
        tokens, vectors, skipped = _cache._read(entry, stamp)
        assert (tokens, vectors.tobytes(), skipped) == (
            result[0], result[1].tobytes(), result[2])
        for i, field in enumerate(stamp):
            changed = field + b"x" if isinstance(field, bytes) else field + 1
            assert _cache._read(entry, stamp[:i] + (changed,) + stamp[i + 1:]) is None, i
        with open(entry, "rb") as fh:
            assert _cache._read_head(fh) == (stamp, 4)

    def test_stamp_beyond_64_bits_gets_no_entry(self, emb, cache_home, monkeypatch):
        # a file dated before 1677 has an mtime_ns below -2**63
        real = _cache._stamp

        def stamp(*args):
            fields = list(real(*args))
            fields[5] = -2**63 - 1  # mtime_ns
            return tuple(fields)
        monkeypatch.setattr(_cache, "_stamp", stamp)
        for _ in range(2):
            assert load_outcome(load_embeddings, emb)[2] > 0
        assert self.entries(cache_home) == []

    def test_format_2_entry_is_a_miss_and_is_rewritten(self, emb, cache_home):
        miss = load_outcome(load_embeddings, emb)
        [name] = self.entries(cache_home)
        entry = cache_home / "noisy-align" / name
        whole = entry.read_bytes()
        stamp = _cache._stamp(emb, os.stat(emb), None)
        entry.write_bytes(format_2_entry(stamp, _cache._read(entry, stamp)))
        again = load_outcome(load_embeddings, emb)
        assert again[2] > 0 and again[:2] == miss[:2]
        assert entry.read_bytes() == whole

    @pytest.mark.parametrize("old", ["format-2", "huge-path-record"])
    def test_unreadable_entry_of_a_deleted_file_is_pruned(self, tmp_path, cache_home, old):
        paths = [write(tmp_path, f"{name}.txt", self.TEXT) for name in "ab"]
        for path in paths:
            backdate(path)
        load_embeddings(paths[0])
        [name] = self.entries(cache_home)
        entry = cache_home / "noisy-align" / name
        if old == "format-2":
            stamp = _cache._stamp(paths[0], os.stat(paths[0]), None)
            entry.write_bytes(format_2_entry(stamp, _cache._read(entry, stamp)))
        else:
            declare_shape(entry, 1, (2**62,))  # 4 EiB of realpath: a MemoryError
        paths[0].unlink()
        load_embeddings(paths[1])  # a written entry prunes the root
        assert name not in self.entries(cache_home) and len(self.entries(cache_home)) == 1

    @pytest.mark.parametrize("head", ["integer", "three-fields", "zip-magic"])
    def test_entry_without_a_stamp_record_is_a_miss(self, emb, cache_home, head):
        miss = load_outcome(load_embeddings, emb)
        [name] = self.entries(cache_home)
        entry = cache_home / "noisy-align" / name
        whole = entry.read_bytes()
        with open(entry, "rb") as fh:
            np.lib.format.read_array(fh)
            rest = whole[fh.tell():]
        first = io.BytesIO()
        if head == "zip-magic":  # np.load would open the file as an .npz archive
            first.write(b"PK\x03\x04")
        else:
            np.save(first, np.array(3) if head == "integer" else np.zeros((), "i8,i8,i8"))
        entry.write_bytes(first.getvalue() + rest)
        error = "magic string" if head == "zip-magic" else "^malformed cache entry head$"
        with pytest.raises(ValueError, match=error):
            _cache._read(entry, _cache._stamp(emb, os.stat(emb), None))
        again = load_outcome(load_embeddings, emb)
        assert again[2] > 0 and again[:2] == miss[:2]
        assert entry.read_bytes() == whole

    @pytest.mark.parametrize("index", [1, 2, 3])
    def test_record_declaring_exabytes_is_a_miss(self, emb, cache_home, index):
        miss = load_outcome(load_embeddings, emb)
        [name] = self.entries(cache_home)
        entry = cache_home / "noisy-align" / name
        whole = entry.read_bytes()
        # more than any address space holds, so its allocation fails
        declare_shape(entry, index, (3, 2**57) if index == 3 else (2**62,))
        stamp = _cache._stamp(emb, os.stat(emb), None)
        with pytest.raises(MemoryError):
            _cache._read(entry, stamp)
        again = load_outcome(load_embeddings, emb)
        assert again[2] > 0 and again[:2] == miss[:2]
        assert entry.read_bytes() == whole

    # entries under the file's own stamp that do not hold a parse: bytes
    # before the first record (None), or a result whose matrix does not fit
    # its tokens
    DAMAGED = {
        "header-of-three-fields": None,
        "extra-token": lambda tokens, vectors, skipped: (tokens + ["x"], vectors, skipped),
        "missing-column": lambda tokens, vectors, skipped: (tokens, vectors[:, :-1], skipped),
        "float32-matrix": lambda tokens, vectors, skipped: (
            tokens, vectors.astype(np.float32), skipped),
        "flat-matrix": lambda tokens, vectors, skipped: (tokens, vectors.ravel(), skipped),
    }

    @pytest.mark.parametrize("damage", DAMAGED)
    def test_damaged_entry_is_parsed_again_and_replaced(self, emb, cache_home, damage):
        miss = load_outcome(load_embeddings, emb)
        [name] = self.entries(cache_home)
        entry = cache_home / "noisy-align" / name
        stamp = _cache._stamp(emb, os.stat(emb), None)
        if self.DAMAGED[damage] is None:
            entry.write_bytes(b"1 2 3\n" + entry.read_bytes())
            with pytest.raises(ValueError, match="magic string"):
                _cache._read(entry, stamp)
        else:
            _cache._write(entry, stamp, self.DAMAGED[damage](*_cache._read(entry, stamp)))
            assert _cache._read(entry, stamp) is None
        again = load_outcome(load_embeddings, emb)
        assert again[2] > 0 and again[:2] == miss[:2]
        assert load_outcome(load_embeddings, emb)[2] == 0

    def test_parse_larger_than_the_bound_gets_no_entry(self, emb, cache_home, monkeypatch):
        monkeypatch.setattr(_cache, "MAX_BYTES", 3 * 3 * 8 - 1)  # the 3 x 3 matrix is 72 B
        for _ in range(2):
            assert load_outcome(load_embeddings, emb)[2] > 0
        assert not (cache_home / "noisy-align").exists()  # nothing was written

    def test_prune_removes_a_stale_temporary_file(self, emb, cache_home):
        root = cache_home / "noisy-align"
        root.mkdir()
        stale, fresh = root / ".1-2-0.98.tmp", root / ".1-3-0.99.tmp"
        for temp in (stale, fresh):
            temp.write_bytes(b"torn")
        backdate(stale, seconds=int(_cache._STALE_TEMP_S) + 60)
        backdate(fresh)
        load_embeddings(emb)  # a written entry prunes the root
        assert not stale.exists() and fresh.exists()
        assert len(self.entries(cache_home)) == 2

    def test_each_limit_has_its_own_entry(self, emb, cache_home):
        for limit in (None, 1, 2, None, 1, 2):
            assert load_embeddings(emb, limit=limit).n == (limit or 3)
        assert len(self.entries(cache_home)) == 3
        assert load_outcome(load_embeddings, emb, limit=1)[0][1] == ["a\x0cb"]

    def test_normalize_is_applied_after_a_hit(self, emb):
        parsed = load_embeddings(emb, normalize=True)
        raw = load_outcome(load_embeddings, emb)
        with mock.patch.object(nio, "_read_lines", side_effect=AssertionError):
            hit = load_embeddings(emb, normalize=True)
        assert raw[0][5] != hit.vectors.tobytes() == parsed.vectors.tobytes()

    def test_fifo_is_never_cached(self, tmp_path, cache_home):
        fifo = tmp_path / "e.fifo"
        os.mkfifo(fifo)
        backdate(fifo)
        for _ in range(2):
            writer = threading.Thread(target=fifo.write_text, args=(self.TEXT,), daemon=True)
            writer.start()
            assert load_embeddings(fifo).n == 3
            writer.join(timeout=10)
            assert not writer.is_alive()
        assert self.entries(cache_home) == []

    def test_prune_removes_orphans_then_the_least_recently_used(self, tmp_path, cache_home,
                                                                 monkeypatch):
        paths = []
        for name in "abcd":
            paths.append(write(tmp_path, f"{name}.txt", self.TEXT))
            backdate(paths[-1])
        load_embeddings(paths[0])
        [orphan] = self.entries(cache_home)
        paths[0].unlink()
        load_embeddings(paths[1])
        assert orphan not in self.entries(cache_home)
        size = (cache_home / "noisy-align" / self.entries(cache_home)[0]).stat().st_size
        monkeypatch.setattr(_cache, "MAX_BYTES", 2 * size + size // 2)
        load_embeddings(paths[2])
        for name in self.entries(cache_home):
            backdate(cache_home / "noisy-align" / name)
        load_embeddings(paths[1])  # a hit marks b's entry used, so c's is the oldest
        load_embeddings(paths[3])
        kept = {name.split("-")[1] for name in self.entries(cache_home)}
        assert kept == {str(os.stat(p).st_ino) for p in (paths[1], paths[3])}


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
        # a line splits at spaces only when it holds no tab, and a run of
        # spaces is one separator; blank and whitespace-only lines are not
        # counted as skipped
        src, tgt = spaces
        text = "good buon\n\nnew   cane\n \t \ndog cane\tcani\n"
        lex, skipped = load_lexicon(write(tmp_path, "l.txt", text), src, tgt)
        assert lex.pairs == [(1, 2), (2, 0)] and skipped == 1

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

    def test_empty_lexicon(self):
        src = make_set(["a"], [[1.0], [2.0]])
        with pytest.raises(ValueError) as exc:
            gather_pairs(Lexicon(pairs=[]), src, src)
        assert str(exc.value) == "lexicon is empty"

    def test_dim_mismatch(self):
        from noisy_align.io import Lexicon
        src = make_set(["a"], [[1.0], [2.0]])
        tgt = make_set(["a"], [[1.0], [2.0], [3.0]])
        with pytest.raises(DataError, match="dimension mismatch"):
            gather_pairs(Lexicon(pairs=[(0, 0)]), src, tgt)


def full_square_norms(M):
    """`_column_norms` from one d x n array of squares, `np.linalg.norm`'s,
    also for the rescaled columns (copied by index): the bits its blocks of
    columns must keep."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(M, axis=0)
    odd = np.flatnonzero((norms < nio._NORM_FLOOR) | np.isinf(norms))
    peak = np.abs(M[:, odd]).max(axis=0, initial=0.0)
    odd, peak = odd[peak > 0], peak[peak > 0]
    if odd.size:
        M = M.copy()
        M[:, odd] /= peak
        norms[odd] = np.linalg.norm(M[:, odd], axis=0)
    return M, norms


class TestColumnNorms:
    BLOCK = nio._NORM_BLOCK_COLS

    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bits_equal_norms_of_all_squares(self, n, order):
        rng = np.random.default_rng(n)
        M = rng.standard_normal((40, n)) * np.exp(rng.uniform(-20, 20, n))
        if n:
            # squares 1 and 39 x 2**-54 sum to 1 row by row but not pairwise,
            # as numpy sums a lone column: a last block of one column differs
            M[:, -1] = [1.0] + [2.0**-27] * 39
        M = np.asarray(M, order=order)
        unit, norms = nio._column_norms(M)
        assert unit is M and np.array_equal(norms, np.linalg.norm(M, axis=0))
        # columns near 1e-200 and 1e200 take the rescale path
        tiny, huge = rng.choice(n, size=(2, min(n // 2, 5)), replace=False)
        M[:, tiny] *= 1e-200
        M[:, huge] *= 1e200
        got, want = nio._column_norms(M), full_square_norms(M)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        if n > 1:
            assert got[0] is not M and np.isfinite(got[1]).all() and (got[1] > 0).all()

    def test_holds_the_squares_of_one_block(self):
        # one block's squares are an eighth of M here; all of them are M.nbytes
        M = np.random.default_rng(3).standard_normal((50, 8 * self.BLOCK))
        tracemalloc.start()
        try:
            unit, norms = nio._column_norms(M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert unit is M and norms.shape == (M.shape[1],)
        assert peak < M.nbytes / 4


def test_load_stoplist(tmp_path):
    assert load_stoplist(write(tmp_path, "s.txt", "the\na\n\nof\n")) == {"the", "a", "of"}


def test_frequency_table(tmp_path):
    # the lexicon's two-column rule: a tab line keeps the spaces in its
    # fields, a run of spaces is one separator, blank lines are ignored
    text = "dog\t0.001\n\ncat   0.5\n \t \nnew york\t0.25\n"
    table = load_frequency_table(write(tmp_path, "f.tsv", text))
    assert table == {"dog": 0.001, "cat": 0.5, "new york": 0.25}


def test_repeated_frequency_token_is_data_error(tmp_path):
    # the threshold decides on this value, so neither line may silently win
    with pytest.raises(DataError, match="repeated frequency for 'a'"):
        load_frequency_table(write(tmp_path, "f.tsv", "a\t0.5\nb\t0.1\na\t0.6\n"))


def test_frequency_out_of_range(tmp_path):
    with pytest.raises(DataError, match="out of"):
        load_frequency_table(write(tmp_path, "f.tsv", "dog\t1.5\n"))


SPACES = (make_set(["a\x0cb", "c"], np.eye(2)), make_set(["d", "e"], np.eye(2)))


@pytest.mark.parametrize("load", [load_embeddings, load_stoplist, load_frequency_table,
                                  lambda path: load_lexicon(path, *SPACES),
                                  cli._config_tokens, load_matrix, load_model])
def test_invalid_utf8_is_data_error(tmp_path, load):
    path = tmp_path / "f.txt"
    path.write_bytes(b"a\tb 0.5\n\xff\xfe\n")
    # the message names the file, as "<what> <path> is not valid UTF-8"
    with pytest.raises(DataError, match=f"^[a-z -]+ {re.escape(str(path))} is not valid"):
        load(path)


# a saved 2 x 2 identity map, then a model's scalar and vector lines
MATRIX_TEXT, IDENTITY = "2\n1 0\n0 1\n", [[1.0, 0.0], [0.0, 1.0]]
MODEL_TAIL = "sigma2 0.5\nmu_y 1 -2\nsigma_y2 2\nalpha 0.25\n"


def model_fields(path):
    m = load_model(path)
    return m.Q.tolist(), m.sigma2, m.mu_y.tolist(), m.sigma_y2, m.alpha


MODEL_FIELDS = (IDENTITY, 0.5, [1.0, -2.0], 2.0, 0.25)


def embedding_rows(path):
    emb = load_embeddings(path)
    return emb.tokens, emb.vectors.tolist(), emb.skipped


def lexicon_pairs(path):
    lex, skipped = load_lexicon(path, *SPACES)
    return lex.pairs, skipped


# each text reader's result on a small file, which a leading byte-order mark
# must not change: it is not part of the header or of the first token
BOM_READS = [
    pytest.param(embedding_rows, "2 2\na 1 0\nc 0 1\n",
                 (["a", "c"], [[1.0, 0.0], [0.0, 1.0]], 0), id="embeddings"),
    pytest.param(embedding_rows, "a 1 0\nc 0 1\n",
                 (["a", "c"], [[1.0, 0.0], [0.0, 1.0]], 0), id="embeddings-without-header"),
    pytest.param(lexicon_pairs, "c\td\na\x0cb\te\n", ([(1, 0), (0, 1)], 0), id="lexicon"),
    pytest.param(load_stoplist, "the\nof\n", {"the", "of"}, id="stop-list"),
    pytest.param(load_frequency_table, "dog\t0.5\n", {"dog": 0.5}, id="frequency-table"),
    pytest.param(cli._config_tokens, "method = op\n", ["--method=op"], id="config"),
    pytest.param(lambda path: load_matrix(path).tolist(), MATRIX_TEXT, IDENTITY,
                 id="matrix"),
    pytest.param(model_fields, MATRIX_TEXT + MODEL_TAIL, MODEL_FIELDS, id="model"),
]


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
@pytest.mark.parametrize("read, text, expected", BOM_READS)
def test_a_byte_order_mark_is_not_read(tmp_path, read, text, expected, bom):
    path = tmp_path / "f.txt"
    path.write_bytes(bom + text.encode("utf-8"))
    assert read(path) == expected


@pytest.mark.parametrize("sep", ["\x0c", "\x85", "\u2028"],
                         ids=["form-feed", "next-line", "line-separator"])
def test_only_a_newline_ends_a_config_matrix_or_model_line(tmp_path, sep):
    path = tmp_path / "f.txt"

    def read(load, text):
        path.write_text(text, encoding="utf-8")
        return load(path)

    # at the end of a row the character is whitespace in that row
    assert read(load_matrix, f"2\n1 0{sep}\n0 1\n").tolist() == IDENTITY
    assert read(model_fields, f"2\n1 0{sep}\n0 1\n{MODEL_TAIL}") == MODEL_FIELDS
    # between two rows it leaves them one line: 4 values in a row of 2
    with pytest.raises(DataError, match="not a finite 2 x 2 block"):
        read(load_matrix, f"2\n1 0{sep}0 1\n")
    with pytest.raises(DataError, match="model file .* is malformed"):
        read(load_model, MATRIX_TEXT + MODEL_TAIL.replace("\n", sep, 1))
    # the comment runs to the newline, over the second key
    assert read(cli._config_tokens, f"method = op # was:{sep}method = sgd\n") == [
        "--method=op"]


READERS = [  # each text reader, and what its errors call the file
    pytest.param(load_embeddings, "embedding file", id="embeddings"),
    pytest.param(lambda path: load_lexicon(path, *SPACES), "lexicon file", id="lexicon"),
    pytest.param(load_stoplist, "stop-list", id="stop-list"),
    pytest.param(load_frequency_table, "frequency table", id="frequency-table"),
    pytest.param(cli._config_tokens, "config file", id="config"),
    pytest.param(load_matrix, "matrix file", id="matrix"),
    pytest.param(load_model, "model file", id="model"),
]


@pytest.mark.parametrize("read, what", READERS)
def test_missing_file_is_data_error_naming_it(tmp_path, read, what):
    path = tmp_path / "missing.txt"
    with pytest.raises(DataError) as info:
        read(path)
    assert str(info.value).startswith(f"cannot read {what} {path}: ")


def test_lexicon_and_frequency_tokens_keep_form_feed(tmp_path):
    lex, skipped = load_lexicon(write(tmp_path, "l.tsv", "a\x0cb\te\nc\td\n"), *SPACES)
    assert [SPACES[0].tokens[i] for i, _ in lex.pairs] == ["a\x0cb", "c"] and skipped == 0
    table = load_frequency_table(write(tmp_path, "f.tsv", "a\x0cb\t0.5\n"))
    assert table == {"a\x0cb": 0.5}


def test_malformed_frequency_is_data_error(tmp_path):
    with pytest.raises(DataError, match="malformed frequency"):
        load_frequency_table(write(tmp_path, "f.tsv", "a\tzz\n"))
