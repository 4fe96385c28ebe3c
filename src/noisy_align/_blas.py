"""Run small BLAS work on one OpenBLAS thread.

After each call, OpenBLAS's idle workers spin for a while before they
sleep. A fit made of many small SVDs, QRs and GEMMs therefore keeps every
worker busy while a second thread buys it no wall time. `threads_for`
drops BLAS to one thread for work below `THREADED_MIN_FLOPS` and restores
the previous count on exit. The thread count is process-global, so this
is not meant for concurrent Python threads. Without an OpenBLAS that
numpy loaded, it does nothing.
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


@functools.cache
def _library():
    """(get, set, start): the thread-count functions of numpy's OpenBLAS and
    the count the process started with, or None when there is none."""
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
