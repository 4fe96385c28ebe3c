"""Keep OpenBLAS's idle worker threads from burning CPU.

An idle OpenBLAS worker spins for 2^28 cycles (about 0.1 s) before it
sleeps: after each threaded call and after its start in `import numpy`.
This module imports numpy with OPENBLAS_THREAD_TIMEOUT=4, which OpenBLAS
reads once, at load: a worker then sleeps after 2^4 cycles, its minimum.
Thread counts, work partition and results are unchanged. A value the user
set wins, and ours is removed right after the import, so no child process
sees it. The package imports this module first; where numpy was loaded
before, set the variable before that import instead.

`threads_for` runs work below `THREADED_MIN_FLOPS` on one BLAS thread: a
second thread buys small SVDs, QRs and GEMMs no wall time. The count is
process-global, so it is not meant for concurrent Python threads. Without
an OpenBLAS that numpy loaded, it does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager
from pathlib import Path

_TIMEOUT = "OPENBLAS_THREAD_TIMEOUT"
_ours = _TIMEOUT not in os.environ
if _ours:
    os.environ[_TIMEOUT] = "4"
try:
    import numpy as np
finally:
    if _ours:
        del os.environ[_TIMEOUT]

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


@functools.cache
def _library():
    """(get, set, start): the thread-count functions of numpy's OpenBLAS
    and the count the process started with; or None when there is no
    such library."""
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
                return get_threads, set_threads, get_threads()
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
    get_threads, set_threads, start = lib
    previous = min(get_threads(), start)
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)
