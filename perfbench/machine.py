"""Facts about the machine and build that every result carries.

Nothing here sets a thread count or a BLAS variable; the figures are
read as the program would see them.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_facts(np) -> dict:
    """Name and version of NumPy's BLAS and, for a bundled OpenBLAS, the
    thread count it will use."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    facts = {"blas": blas.get("name", "unknown"),
             "blas_version": blas.get("version", "unknown"),
             "blas_threads": None}
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                facts["blas_threads"] = fn()
                return facts
    return facts


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git; a
    checkout exported without .git has none."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(root: str, workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    facts = {"nproc": len(os.sched_getaffinity(0)),
             "cpu": cpu_model(),
             "python": sys.version.split()[0],
             "numpy": np.__version__,
             "scipy": scipy.__version__}
    facts.update(blas_facts(np))
    facts.update(commit=git_commit(root), workload=workload, seed=seed)
    return facts
