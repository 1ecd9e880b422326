"""The environment block recorded with every benchmark result."""

from __future__ import annotations

import os
import platform
import subprocess

import numpy as np
import scipy

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_build(config_module) -> dict:
    try:
        blas = config_module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        return {}
    return {"name": blas.get("name"), "version": blas.get("version")}


def _loaded_blas_libraries() -> list:
    """Shared objects mapped into this process whose names look like BLAS."""
    libs = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                path = line.split()[-1]
                base = os.path.basename(path).lower()
                if base.endswith(".so") or ".so." in base:
                    if any(k in base for k in ("blas", "lapack", "mkl", "blis", "gomp")):
                        libs.add(os.path.basename(path))
    except OSError:
        return []
    return sorted(libs)


def _git(root: str, *args) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(root: str) -> dict:
    # the benchmark may run from an exported tree inside some other repository
    sha = _git(root, "rev-parse", "HEAD") if os.path.isdir(os.path.join(root, ".git")) else None
    status = _git(root, "status", "--porcelain") if sha else None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "numpy_blas": _blas_build(np),
        "scipy_blas": _blas_build(scipy),
        "blas_libraries_loaded": _loaded_blas_libraries(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "git_dirty": (status != "") if status is not None else None,
    }
