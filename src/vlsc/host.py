"""What the host offers a process: its usable cores, and control of the
thread count of numpy's bundled OpenBLAS."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os

import numpy as np


def usable_cores() -> int:
    """The cores this process may run on, where the host reports them
    (not on macOS or Windows), else the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.lru_cache(maxsize=None)
def openblas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS that numpy bundles
    in numpy.libs, or None where numpy bundles none that has them."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@contextlib.contextmanager
def one_blas_thread():
    """numpy's OpenBLAS on one thread inside the block, and back on the
    count it had when the block ends, however it ends. Needs
    openblas_thread_calls() to have found the calls."""
    get, put = openblas_thread_calls()
    old = get()
    put(1)
    try:
        yield
    finally:
        put(old)
