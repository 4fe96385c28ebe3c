"""Randomized invariants checked with hypothesis."""

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from noisy_align.align import (
    SgdConfig,
    alignment_error,
    load_matrix,
    procrustes,
    random_orthogonal,
    save_matrix,
    sgd_align,
)
from noisy_align.io import (
    DataError,
    EmbeddingSet,
    load_embeddings,
    load_frequency_table,
    load_lexicon,
    load_stoplist,
)
from noisy_align.mixture import (
    ORTHO_TOL,
    VAR_FLOOR,
    AlignmentModel,
    _m_step,
    _residuals,
    initialize,
    load_model,
    save_model,
)
from test_align import sgd_oracle
from test_mixture import ALIGNED, NOISE, jittered_instance, pair_weight, residuals


def instance(seed, d, n):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((d, n)), rng.standard_normal((d, n))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), d=st.integers(1, 8), n=st.integers(1, 40))
def test_procrustes_is_orthogonal(seed, d, n):
    X, Y = instance(seed, d, n)
    # Gaussian columns have full rank, so the rank falls below d exactly when n < d
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        Q = procrustes(X, Y)
    assert any("rank-deficient" in str(w.message) for w in caught) == (n < d)
    assert np.linalg.norm(Q.T @ Q - np.eye(d)) <= 1e-8


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), d=st.integers(2, 12), n=st.integers(1, 40),
       epochs=st.integers(1, 50))
@example(seed=0, d=12, n=1, epochs=50)
def test_full_batch_sgd_matches_per_epoch_oracle(seed, d, n, epochs):
    # the Gram-form step 2 (Q XX^T - YX^T) against 2 (QX - Y) X^T per epoch;
    # the sums run in another order, so they agree to roundoff, not bitwise
    X, Y = instance(seed, d, n)
    lr = 0.4 / max(float(np.linalg.norm(X @ X.T, ord=2)), 1e-12)
    Q = sgd_align(X, Y, SgdConfig(epochs=epochs, seed=seed))
    Q_ref = sgd_oracle(X, Y, lr, epochs, n, seed)
    assert np.linalg.norm(Q - Q_ref) <= 1e-10 * np.linalg.norm(Q_ref)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), d=st.integers(1, 6), n=st.integers(2, 30),
       split=st.integers(1, 29))
def test_alignment_error_additive_over_disjoint_masks(seed, d, n, split):
    X, Y = instance(seed, d, n)
    Q = random_orthogonal(d, seed % 1000)
    mask = np.zeros(n, dtype=bool)
    mask[: max(1, split % n)] = True
    if (~mask).sum() == 0:
        return
    total = alignment_error(Q, X, Y, mask) + alignment_error(Q, X, Y, ~mask)
    assert np.isclose(total, alignment_error(Q, X, Y), rtol=1e-12)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       alpha=st.floats(0.0, 1.0),
       sigma2=st.floats(1e-6, 10.0),
       sigma_y2=st.floats(1e-6, 10.0))
def test_posterior_stays_in_unit_interval(seed, alpha, sigma2, sigma_y2):
    rng = np.random.default_rng(seed)
    d = 4
    model = AlignmentModel(Q=random_orthogonal(d, seed % 1000), sigma2=sigma2,
                           mu_y=rng.standard_normal(d), sigma_y2=sigma_y2,
                           alpha=alpha)
    w = pair_weight(model, rng.standard_normal(d), 10.0 * rng.standard_normal(d))
    assert 0.0 <= w <= 1.0
    if alpha == 0.0:
        assert w == 0.0
    if alpha == 1.0:
        assert w == 1.0


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), d=st.integers(1, 8), n=st.integers(1, 40),
       scale=st.sampled_from([1e-150, 1.0, 1e100]))
def test_residuals_are_each_components_formula_bit_for_bit(seed, d, n, scale):
    # one kernel serves both components, squaring their difference in place:
    # the same bits as sum((Qx - y)^2) and sum((y - mu_y)^2)
    X, Y = instance(seed, d, n)
    Y *= scale
    Q = random_orthogonal(d, seed)
    mu_y = Y.mean(axis=1)
    assert np.array_equal(_residuals(Q @ X - Y, ALIGNED),
                          np.sum((Q @ X - Y) ** 2, axis=0))
    assert np.array_equal(_residuals(Y - mu_y[:, None], NOISE),
                          np.sum((Y - mu_y[:, None]) ** 2, axis=0))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), frac=st.floats(0.0, 1.0))
def test_m_step_with_01_weights_equals_subset_fit(seed, frac):
    # hard EM relies on this: the weighted M-step with a 0/1 mask is the
    # Procrustes fit and the moments of the masked columns
    X, Y, _ = jittered_instance(seed)
    d, n = X.shape
    rng = np.random.default_rng(seed)
    mask = rng.random(n) < frac
    mask[rng.choice(n, 2, replace=False)] = [True, False]
    start = initialize(X, Y)[0]
    model, degenerate, r, r0 = _m_step(start, X, Y, mask.astype(np.float64),
                                       *residuals(start, X, Y))
    Xa, Ya, Yn = X[:, mask], Y[:, mask], Y[:, ~mask]
    n1 = Xa.shape[1]
    with warnings.catch_warnings():  # subsets narrower than d are rank-deficient
        warnings.simplefilter("ignore", RuntimeWarning)
        Qa = procrustes(Xa, Ya)
    mu = Yn.mean(axis=1)
    assert not degenerate
    want_r, want_r0 = residuals(model, X, Y)
    assert np.array_equal(r, want_r)
    assert np.array_equal(r0, want_r0)
    # Q is unique on the span of the selected columns, not beyond it
    assert np.abs(model.Q @ Xa - Qa @ Xa).max() <= 1e-10
    sigma2 = max(alignment_error(Qa, Xa, Ya) / (d * n1), VAR_FLOOR)
    assert abs(model.sigma2 - sigma2) <= 1e-10
    assert np.abs(model.mu_y - mu).max() <= 1e-10
    sigma_y2 = max(float(np.sum((Yn - mu[:, None]) ** 2)) / (d * (n - n1)), VAR_FLOOR)
    assert abs(model.sigma_y2 - sigma_y2) <= 1e-10
    assert model.alpha == n1 / n


def _saved_model_lines():
    model = AlignmentModel(Q=random_orthogonal(2, 3), sigma2=0.5,
                           mu_y=np.array([1.0, -2.0]), sigma_y2=2.0, alpha=0.25)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.txt"
        save_model(model, path)
        return path.read_text().splitlines()


SAVED_MODEL = _saved_model_lines()


@st.composite
def damaged_model_text(draw):
    """A saved model file, truncated and with one token replaced."""
    lines = SAVED_MODEL[:draw(st.integers(0, len(SAVED_MODEL)))]
    if lines and draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        j = draw(st.integers(0, len(tokens)))
        tokens[j:j + 1] = [draw(st.sampled_from(
            ["", "x", "nan", "inf", "-1", "0", "3", "1e400", "0.5 0.5"]))]
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@settings(max_examples=200, deadline=None)
@given(text=st.one_of(st.text(), damaged_model_text()))
# a lone surrogate is written as the byte it escapes, which UTF-8 cannot
# decode: a model with a trailing b"\xff\xfe" line, a matrix with a binary
# tail, a matrix cut inside a two-byte character
@example("\n".join(SAVED_MODEL) + "\n\udcff\udcfe\n")
@example("\n".join(SAVED_MODEL[:3]) + "\n\udc89PNG\x00\udc80\n")
@example("\n".join(SAVED_MODEL[:3]) + "\n\udcc3")
def test_loaders_give_valid_object_or_data_error(text):
    undecodable = any("\udc80" <= c <= "\udcff" for c in text)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.txt"
        path.write_text(text, encoding="utf-8", errors="surrogateescape")
        try:
            Q = load_matrix(path)
        except DataError:
            pass
        else:
            assert not undecodable
            assert isinstance(Q, np.ndarray) and Q.dtype == np.float64
            assert Q.ndim == 2 and Q.shape[0] == Q.shape[1] and np.isfinite(Q).all()
        try:
            model = load_model(path)
        except DataError:
            pass
        else:
            assert not undecodable
            assert np.linalg.norm(model.Q.T @ model.Q - np.eye(model.dim)) <= ORTHO_TOL
            assert model.mu_y.shape == (model.dim,)
            assert np.isfinite([model.sigma2, model.sigma_y2, model.alpha]).all()


@st.composite
def map_to_save(draw):
    """(Q, model): a finite Q for a matrix file and None, or an orthogonal
    Q and the model for a model file."""
    d = draw(st.integers(1, 5))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    if draw(st.booleans()):
        return np.array(draw(st.lists(finite, min_size=d * d, max_size=d * d))).reshape(d, d), None
    positive = st.floats(min_value=5e-324, allow_infinity=False)
    model = AlignmentModel(
        Q=random_orthogonal(d, draw(st.integers(0, 2**31 - 1))),
        sigma2=draw(positive), mu_y=draw(st.lists(finite, min_size=d, max_size=d)),
        sigma_y2=draw(positive), alpha=draw(st.floats(0.0, 1.0)))
    return model.Q, model


# printable ASCII: no character that a line split takes for whitespace or
# that ends a line
PRINTABLE = st.characters(min_codepoint=32, max_codepoint=126)


@settings(max_examples=100, deadline=None)
@given(saved=map_to_save(), data=st.data())
def test_saved_maps_load_bit_exact_and_one_more_line_or_field_is_rejected(saved, data):
    Q, model = saved
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "map.txt"
        if model is None:
            save_matrix(Q, path)
        else:
            save_model(model, path)
            loaded = load_model(path)
            assert loaded.Q.tobytes() == Q.tobytes()
            assert loaded.mu_y.tobytes() == model.mu_y.tobytes()
            assert [loaded.sigma2, loaded.sigma_y2, loaded.alpha] == \
                [model.sigma2, model.sigma_y2, model.alpha]
        assert load_matrix(path).tobytes() == Q.tobytes()

        lines = path.read_text().splitlines()
        if data.draw(st.booleans(), label="append a line"):
            lines.append(data.draw(st.text(PRINTABLE, max_size=12), label="line"))
        else:
            i = data.draw(st.integers(0, len(lines) - 1), label="row")
            lines[i] += " " + data.draw(
                st.text(PRINTABLE.filter(lambda c: c != " "), min_size=1), label="field")
        path.write_text("\n".join(lines) + "\n")
        for load in (load_matrix, load_model):
            with pytest.raises(DataError):
                load(path)


# byte pieces that make headers, rows, lexicon pairs and frequency lines likely
TEXT_PIECES = [b"a", b"b", b"\t", b" ", b"\n", b"\r", b"\x0c", b"\xff", b"\xc3",
               b"\xc3\xa9", b"\xe2\x80\xa8", b"0.5", b"1", b"-2", b"nan", b"inf", b"2 2"]
FUZZ_SPACE = EmbeddingSet(tokens=["a", "b"], vectors=np.eye(2))


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(st.binary(), st.lists(st.sampled_from(TEXT_PIECES)).map(b"".join)))
@example(b"a\tb\n")  # a lexicon line that resolves in FUZZ_SPACE
def test_text_loaders_give_valid_object_or_data_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.txt"
        path.write_bytes(data)
        try:
            emb = load_embeddings(path, limit=3)
        except DataError:
            pass
        else:
            assert 1 <= emb.n <= 3 and emb.vectors.shape == (emb.dim, emb.n)
            assert np.isfinite(emb.vectors).all()
        try:
            lex, skipped = load_lexicon(path, FUZZ_SPACE, FUZZ_SPACE)
        except DataError:
            pass
        else:
            assert len(lex) >= 1 and skipped >= 0
            assert all(0 <= i < 2 and 0 <= j < 2 for i, j in lex.pairs)
        try:
            stop = load_stoplist(path)
        except DataError:
            pass
        else:
            assert all(isinstance(t, str) and t == t.strip() and t for t in stop)
        try:
            table = load_frequency_table(path)
        except DataError:
            pass
        else:
            assert all(0.0 <= f <= 1.0 for f in table.values())
