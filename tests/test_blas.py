"""`_blas.threads_for`: one BLAS thread for small work, the count restored after."""

import contextlib
import io

import numpy as np
import pytest

from noisy_align import _blas, experiments
from noisy_align._blas import THREADED_MIN_FLOPS, threads_for

SMALL, LARGE = THREADED_MIN_FLOPS / 2, THREADED_MIN_FLOPS


class FakeOpenBlas:
    """Stands in for the library: a thread count and a log of set calls."""

    def __init__(self, start):
        self.count = start
        self.sets = []
        self.library = (lambda: self.count, self.set, start)

    def set(self, n):
        self.sets.append(n)
        self.count = n


@pytest.fixture
def fake(monkeypatch):
    blas = FakeOpenBlas(start=4)
    monkeypatch.setattr(_blas, "_library", lambda: blas.library)
    return blas


def test_small_work_runs_on_one_thread_and_restores(fake):
    with threads_for(SMALL):
        assert fake.count == 1
    assert fake.count == 4


def test_restored_after_an_exception(fake):
    with pytest.raises(KeyError):
        with threads_for(SMALL):
            raise KeyError("boom")
    assert fake.count == 4


def test_nested_blocks_restore_their_own_count(fake):
    with threads_for(SMALL):
        with threads_for(SMALL):
            assert fake.count == 1
        assert fake.count == 1
        with threads_for(LARGE):
            assert fake.count == 1
    assert fake.count == 4


def test_large_work_leaves_the_count_alone(fake):
    with threads_for(LARGE):
        assert fake.count == 4
    assert fake.sets == []


def test_never_restores_above_the_starting_count(fake):
    # OPENBLAS_NUM_THREADS set the starting count; it stays the cap
    fake.count = 8
    with threads_for(SMALL):
        pass
    assert fake.count == 4


def test_no_op_without_openblas(monkeypatch):
    monkeypatch.setattr(_blas, "_library", lambda: None)
    with threads_for(SMALL):
        pass


def spy_threads(monkeypatch, fake, name):
    """The thread count at each call of `experiments.<name>`."""
    seen = []
    real = getattr(experiments, name)

    def recorded(*args, **kwargs):
        seen.append(fake.count)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, name, recorded)
    return seen


def test_noise_curve_generates_and_fits_on_one_thread(fake, monkeypatch):
    # the problem generation between the fits runs on one thread too
    problems = spy_threads(monkeypatch, fake, "make_noisy_problem")
    fits = spy_threads(monkeypatch, fake, "procrustes")
    experiments.run_noise_curve(n=20, d=3, levels=(0.0, 0.2), test_n=5,
                                seeds=range(1), methods=("op",))
    assert problems == [1, 1] and fits == [1, 1]
    assert fake.count == 4


@pytest.mark.parametrize("d,n,threads", [(50, 1000, 1), (300, 600, 4)])
def test_fit_translation_picks_threads_by_m_step_flops(fake, monkeypatch, d, n, threads):
    # 2 d^2 n: 5e6 flops runs on one thread, 1.08e8 keeps the count
    fits = spy_threads(monkeypatch, fake, "procrustes")
    X = np.random.default_rng(0).standard_normal((d, n))
    experiments.fit_translation("op", X, X)
    assert fits == [threads] and fake.count == 4


def _numpy_names_openblas() -> bool:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        np.show_config()
    return "openblas" in out.getvalue().lower()


@pytest.mark.skipif(not _numpy_names_openblas(), reason="numpy is not built on OpenBLAS")
def test_finds_the_openblas_numpy_loaded():
    lib = _blas._library()
    assert lib is not None, "numpy names OpenBLAS but no thread-count symbols were found"
    get_threads, _, start = lib
    before = get_threads()
    assert 1 <= before <= start
    with threads_for(SMALL):
        assert get_threads() == 1
    assert get_threads() == before
