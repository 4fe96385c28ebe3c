"""`_blas.threads_for`: one BLAS thread for small work, the count restored after;
OpenBLAS's idle workers sleep at once when the package loads numpy."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import noisy_align
from noisy_align import _blas, experiments
from noisy_align._blas import THREADED_MIN_FLOPS, threads_for
from noisy_align.align import SgdConfig

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


def reference_fit_flops(method, d, n, sgd_cfg=None):
    """`experiments._fit_flops` written out per method: 2 d^2 n, and for SGD
    200 (or `epochs`) more d x d x d GEMMs when one batch holds all n pairs."""
    if method != "sgd":
        return 2.0 * d * d * n
    cfg = sgd_cfg or SgdConfig()
    return 2.0 * d * d * n + (cfg.epochs if cfg.full_batch(n) else 0) * 2.0 * d ** 3


@pytest.mark.parametrize("method", experiments.METHODS)
def test_fit_flops_matches_the_per_method_formula(method):
    for d, n in ((1, 1), (2, 3), (50, 1000), (300, 500), (300, 600), (7, 10**6)):
        for cfg in (None, SgdConfig(), SgdConfig(epochs=3000), SgdConfig(batch_size=n),
                    SgdConfig(batch_size=n + 1, epochs=7), SgdConfig(batch_size=1),
                    SgdConfig(batch_size=max(1, n // 2), epochs=5)):
            assert experiments._fit_flops(method, d, n, cfg) == reference_fit_flops(
                method, d, n, cfg)


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
    get_threads, _, start = lib
    before = get_threads()
    assert 1 <= before <= start
    with threads_for(SMALL):
        assert get_threads() == 1
    assert get_threads() == before


# In a fresh interpreter: the CPU time, from schedstat, of every thread but
# the main one after `import noisy_align` loaded numpy, and over 0.3 s idle
# after one threaded 600 x 600 GEMM; and whether the import left os.environ
# as it was.
IDLE_PROBE = """
import json, os, sys, time
from pathlib import Path

def workers():
    return [t for t in Path("/proc/self/task").iterdir() if int(t.name) != os.getpid()]

def worker_ms():
    return sum(int((t / "schedstat").read_text().split()[0]) for t in workers()) / 1e6

environ = dict(os.environ)
import noisy_align
import_ms = worker_ms()
import numpy as np
A = np.random.default_rng(0).standard_normal((600, 600))
A @ A
gemm_ms = worker_ms()
time.sleep(0.3)
print(json.dumps({"workers": len(workers()), "import_ms": import_ms,
                  "idle_ms": worker_ms() - gemm_ms,
                  "environ_unchanged": dict(os.environ) == environ,
                  "timeout": os.environ.get("OPENBLAS_THREAD_TIMEOUT")}))
"""


def run_idle_probe(**env) -> dict:
    src = str(Path(noisy_align.__file__).parents[1])
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", IDLE_PROBE], env={**base, **env},
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout)


@pytest.mark.skipif(not _numpy_names_openblas(), reason="numpy is not built on OpenBLAS")
@pytest.mark.skipif(not Path("/proc/self/schedstat").exists(), reason="no schedstat")
def test_idle_workers_sleep_from_the_package_import_on():
    # at OpenBLAS's default timeout of 2^28 cycles an idle worker spins for
    # about 0.1 s: 60-70 ms during the import and 0.12 s after the GEMM on
    # a 2-vCPU Xeon
    probe = run_idle_probe()
    if probe["workers"] == 0:
        pytest.skip("OpenBLAS runs no worker thread here")
    assert probe["import_ms"] <= 10
    assert probe["idle_ms"] <= 10
    assert probe["environ_unchanged"] and probe["timeout"] is None
    # a value the user set is left in place
    probe = run_idle_probe(OPENBLAS_THREAD_TIMEOUT="28")
    assert probe["environ_unchanged"] and probe["timeout"] == "28"
