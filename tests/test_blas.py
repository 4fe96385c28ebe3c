"""`_blas.threads_for`: one BLAS thread for small work, the count restored after;
`_blas.park`: the workers stopped, with nothing else changed."""

import contextlib
import io
from pathlib import Path

import numpy as np
import pytest

from noisy_align import _blas, experiments
from noisy_align._blas import THREADED_MIN_FLOPS, park, threads_for
from noisy_align.align import SgdConfig

SMALL, LARGE = THREADED_MIN_FLOPS / 2, THREADED_MIN_FLOPS


class FakeOpenBlas:
    """Stands in for the library: a thread count, a log of set calls and a
    count of shutdown calls."""

    def __init__(self, start):
        self.count = start
        self.sets = []
        self.shutdowns = 0
        self.library = (lambda: self.count, self.set, start, self.shutdown)

    def set(self, n):
        self.sets.append(n)
        self.count = n

    def shutdown(self):
        self.shutdowns += 1
        return 0


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


def test_park_stops_the_workers_and_keeps_the_count(fake):
    park()
    assert fake.shutdowns == 1 and fake.count == 4 and fake.sets == []
    with threads_for(SMALL):
        assert fake.count == 1
    assert fake.count == 4


def test_park_is_a_no_op_without_openblas(monkeypatch):
    monkeypatch.setattr(_blas, "_library", lambda: None)
    park()


def test_park_is_a_no_op_without_the_shutdown_symbol(fake, monkeypatch):
    monkeypatch.setattr(_blas, "_library", lambda: fake.library[:3] + (None,))
    park()
    assert fake.shutdowns == 0


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


@pytest.mark.parametrize("method,fit,d,n,batch,threads", [
    # 2 d^2 n: 5e6 flops runs on one thread, 1.08e8 keeps the count
    pytest.param("op", "procrustes", 50, 1000, None, 1, id="50-1000-1"),
    pytest.param("op", "procrustes", 300, 600, None, 4, id="300-600-4"),
    # full-batch SGD adds 200 epochs of 2 d^3: 5.5e7 runs on one thread,
    # and 1.08e10 keeps the count although its 2 d^2 n is only 9e7
    pytest.param("sgd", "sgd_align", 50, 1000, None, 1, id="sgd-50-1000-1"),
    pytest.param("sgd", "sgd_align", 300, 500, None, 4, id="sgd-300-500-4"),
    # minibatch SGD is sized by 2 d^2 n alone: 5e6 runs on one thread
    pytest.param("sgd", "sgd_align", 50, 1000, 500, 1, id="sgd-50-1000-batch-500-1"),
])
def test_fit_translation_picks_threads_by_m_step_flops(fake, monkeypatch, method, fit,
                                                       d, n, batch, threads):
    fits = spy_threads(monkeypatch, fake, fit)
    X = np.random.default_rng(0).standard_normal((d, n))
    experiments.fit_translation(method, X, X, sgd_cfg=SgdConfig(batch_size=batch))
    assert fits == [threads] and fake.count == 4


def test_noise_curve_is_sized_by_its_largest_fit(fake, monkeypatch):
    # op's 2 d^2 n is 3e6 flops, but full-batch SGD's 4e8 keeps the count
    problems = spy_threads(monkeypatch, fake, "make_noisy_problem")
    experiments.run_noise_curve(n=150, d=100, levels=(0.0,), test_n=5,
                                seeds=range(1), methods=("op", "sgd"))
    assert problems == [4] and fake.count == 4


def _numpy_names_openblas() -> bool:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        np.show_config()
    return "openblas" in out.getvalue().lower()


@pytest.mark.skipif(not _numpy_names_openblas(), reason="numpy is not built on OpenBLAS")
def test_finds_the_openblas_numpy_loaded():
    lib = _blas._library()
    assert lib is not None, "numpy names OpenBLAS but no thread-count symbols were found"
    get_threads, _, start, _ = lib
    before = get_threads()
    assert 1 <= before <= start
    with threads_for(SMALL):
        assert get_threads() == 1
    assert get_threads() == before


@pytest.mark.skipif(not _numpy_names_openblas(), reason="numpy is not built on OpenBLAS")
def test_park_leaves_results_and_thread_count_alone():
    lib = _blas._library()
    if lib is None or lib[3] is None:
        # numpy >= 2 wheels export the shutdown beside the thread-count pair
        assert lib is None or np.lib.NumpyVersion(np.__version__) < "2.0.0"
        pytest.skip("this OpenBLAS exports no blas_thread_shutdown_")
    get_threads = lib[0]
    rng = np.random.default_rng(0)
    A, B = rng.standard_normal((300, 300)), rng.standard_normal((300, 300))
    gemm, svd = A @ B, np.linalg.svd(A)
    before = get_threads()
    tasks = Path("/proc/self/task")
    running = len(list(tasks.iterdir())) if tasks.is_dir() else None
    park()
    if running is not None and before > 1:
        # the workers have exited, and the next threaded call starts them again
        assert len(list(tasks.iterdir())) < running
    assert get_threads() == before
    assert np.array_equal(A @ B, gemm)
    if running is not None:
        assert len(list(tasks.iterdir())) == running
    park()
    assert all(np.array_equal(a, b) for a, b in zip(np.linalg.svd(A), svd))
    park()
    with threads_for(SMALL):
        assert get_threads() == 1
    assert get_threads() == before
