"""Keep OpenBLAS's idle worker threads from burning CPU.

After each threaded call, OpenBLAS's idle workers spin for about 0.1 s
before they sleep. A fit made of many small SVDs, QRs and GEMMs therefore
keeps every worker busy while a second thread buys it no wall time.
`threads_for` drops BLAS to one thread for work below `THREADED_MIN_FLOPS`
and restores the previous count on exit. `park` stops the workers; the
`align`, `clean-lexicon` and `diachronic` commands call it after their
last BLAS call, so that no worker spins through the output writes (on
the benchmark inputs, 0.1-0.12 s less worker CPU per run). The next
threaded call starts the workers again. Neither can reach the worker's
spin during `import numpy` (0.05-0.1 s of CPU), which ends before this
package runs. The thread count is process-global, so
neither is meant for concurrent Python threads. Without an OpenBLAS that
numpy loaded, both do nothing.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# on a 2-vCPU Xeon, a second BLAS thread made EM and Procrustes fits below
# this many M-step flops no faster, and d x n x d GEMMs from here up
# 1.5-1.9x faster
THREADED_MIN_FLOPS = 1e8

# (getter, setter) symbol names: numpy >= 2 wheels, numpy 1.x wheels, plain
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
# what OpenBLAS calls before every fork(): it joins the worker threads, and
# the next threaded call or a raised thread count starts them again
_SHUTDOWN = "blas_thread_shutdown_"


@functools.cache
def _library():
    """(get, set, start, shutdown): the thread-count functions of numpy's
    OpenBLAS, the count the process started with and the function that
    stops its workers (None where the library lacks it); or None when
    there is no such library."""
    root = Path(np.__file__).parent
    for lib_path in sorted([*root.parent.glob("numpy.libs/*openblas*"),
                            *root.glob(".dylibs/*openblas*")]):
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get_threads = getattr(lib, get_name, None)
            set_threads = getattr(lib, set_name, None)
            if get_threads is not None and set_threads is not None:
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                shutdown = getattr(lib, _SHUTDOWN, None)
                if shutdown is not None:
                    shutdown.argtypes, shutdown.restype = [], ctypes.c_int
                return get_threads, set_threads, get_threads(), shutdown
    return None


@contextmanager
def threads_for(flops: float):
    """Run the block on one BLAS thread when `flops < THREADED_MIN_FLOPS`.

    Larger work keeps the current count. On exit, also on an exception,
    the count in force before the block is restored; it never exceeds the
    count the process started with, so OPENBLAS_NUM_THREADS still caps it.
    """
    lib = _library()
    if lib is None or flops >= THREADED_MIN_FLOPS:
        yield
        return
    get_threads, set_threads, start, _ = lib
    previous = min(get_threads(), start)
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)


def park() -> None:
    """Stop OpenBLAS's worker threads until the next threaded call.

    Call it after a command's last BLAS call: the Python work that follows
    then runs without an idle worker spinning beside it. The thread count
    is unchanged, so `threads_for` and `get_threads` see the same count,
    and results of later calls are unchanged too.
    """
    lib = _library()
    if lib is not None and lib[3] is not None:
        lib[3]()
