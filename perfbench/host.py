"""BLAS pinning and the host fingerprint recorded with every result.

:data:`PIN_ENV` must be in the environment before NumPy is imported —
OpenBLAS sizes its thread pool when the library loads — so ``run.py``
applies it first thing, and passes the same variables to the server
subprocess.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import sys
from typing import Any, Dict, Optional

PIN_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# OpenBLAS builds export their thread-count query under a vendor prefix
# and, for 64-bit-integer builds, a ``64_`` suffix.
_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def pin_blas_threads() -> None:
    """Pin every BLAS/OpenMP pool in this process (and its children) to 1."""
    os.environ.update(PIN_ENV)


def _loaded_openblas() -> Optional[str]:
    """Path of the OpenBLAS library mapped into this process, if any."""
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower():
                    return path
    except OSError:
        pass
    return None


def blas_threads() -> Optional[int]:
    """The thread count the loaded OpenBLAS reports about itself, or
    ``None`` where the library or its query is not exposed."""
    path = _loaded_openblas()
    if path is None:
        return None
    lib = ctypes.CDLL(path)
    for symbol in _THREAD_QUERIES:
        query = getattr(lib, symbol, None)
        if query is not None:
            query.argtypes = []
            query.restype = ctypes.c_int
            return int(query())
    return None


def _git_commit(root: str) -> Optional[str]:
    """HEAD of ``root/.git`` read from the files, so a checkout that is not
    a git repository yields ``None`` instead of a parent repository's HEAD."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: str) -> str:
    """SHA-256 over the ``src`` tree (paths and bytes), identifying the
    program measured even where no git metadata is present."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def speed_probe_ms(repeats: int = 20) -> float:
    """Median time of a fixed 256x256 float32 matmul: the host's speed at
    the moment, recorded at the start and end of a run so a result taken
    while the machine was slow can be told apart from a slower program."""
    import time

    import numpy as np

    a = np.random.default_rng(0).standard_normal((256, 256)).astype(np.float32)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ a
        times.append(time.perf_counter() - t0)
    return float(np.median(times) * 1e3)


def fingerprint(root: str) -> Dict[str, Any]:
    """Everything needed to tell two results' hosts and programs apart."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in PIN_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
        "argv": sys.argv[1:],
    }
