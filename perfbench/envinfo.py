"""The numeric environment a recording was made in.

BLAS kernels change floating-point results (the OpenBLAS core type can
change a table fingerprint) and BLAS threads change timings, so every
recording carries what was held fixed and what was found.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
import sys
from typing import Any

#: settings the benchmark process starts under; every process it starts
#: inherits them. One BLAS thread per process keeps the 2-process fleet
#: from oversubscribing the cores and makes timings steadier. A fixed
#: malloc mmap threshold stops glibc from raising it at run time, which
#: otherwise makes peak RSS jump by ~20 MB depending on the seed.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": "131072",
}


def unpinned() -> bool:
    """True when this process did not start under :data:`PINNED_ENV`."""
    return any(os.environ.get(key) != value for key, value in PINNED_ENV.items())


def _git_sha(root: str) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _openblas_runtime(numpy_dir: str) -> dict[str, Any]:
    """Core type, thread count and config string from the loaded OpenBLAS."""
    candidates = sorted(glob.glob(os.path.join(numpy_dir, os.pardir, "numpy.libs",
                                               "*openblas*")))
    for path in candidates:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        found: dict[str, Any] = {}
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            for key, fn_name, restype in (
                ("core_type", "get_corename", ctypes.c_char_p),
                ("threads", "get_num_threads", ctypes.c_int),
                ("config", "get_config", ctypes.c_char_p),
            ):
                fn = getattr(lib, f"{prefix}_{fn_name}{suffix}", None)
                if fn is None or key in found:
                    continue
                fn.restype = restype
                value = fn()
                found[key] = value.decode() if isinstance(value, bytes) else int(value)
        if found:
            return found
    return {}


def numeric_environment(root: str) -> dict[str, Any]:
    import numpy as np

    blas: dict[str, Any] = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        build = deps.get("blas", {})
        blas = {"vendor": build.get("name"), "version": build.get("version")}
    except (TypeError, AttributeError):  # numpy < 1.25 has no dict mode
        blas = {"vendor": "unknown", "version": "unknown"}
    blas.update(_openblas_runtime(os.path.dirname(np.__file__)))
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count() or 0
    try:
        from repro.exec.cache import code_version_tag

        code_tag = code_version_tag()
    except ImportError:
        code_tag = "unknown"
    return {
        "git_sha": _git_sha(root),
        "code_tag": code_tag,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "pinned_env": {key: os.environ.get(key) for key in PINNED_ENV},
        "platform": platform.platform(),
    }
