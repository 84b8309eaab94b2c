"""Environment record of a benchmark run.

numpy and scipy wheels each bundle their own OpenBLAS; both are found among
the shared objects mapped into this process and queried through ctypes.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _openblas_libs() -> list:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    libs = []
    for path in paths:
        try:
            libs.append((path, ctypes.CDLL(path)))
        except OSError:
            continue
    return libs


def _symbol(lib, stem: str):
    for prefix in ("scipy_", ""):
        for suffix in ("64_", ""):
            fn = getattr(lib, f"{prefix}openblas_{stem}{suffix}", None)
            if fn is not None:
                return fn
    return None


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, keyed by library file name."""
    out = {}
    for path, lib in _openblas_libs():
        fn = _symbol(lib, "get_num_threads")
        if fn is not None:
            fn.restype = ctypes.c_int
            out[Path(path).name] = int(fn())
    return out


def _blas_configs() -> dict:
    out = {}
    for path, lib in _openblas_libs():
        fn = _symbol(lib, "get_config")
        if fn is not None:
            fn.restype = ctypes.c_char_p
            out[Path(path).name] = fn().decode(errors="replace").strip()
    return out


def _git_commit(root: Path):
    """HEAD of the repository rooted exactly at ``root``; None for a plain checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def source_digest(src: Path) -> str:
    """sha256 over the program's Python sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def record(root: Path, src: Path, inherited_env: dict, allowed_cpus: list, pinned_cpu: int) -> dict:
    """Facts that decide how comparable two results are."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(allowed_cpus),
        "allowed_cpus": allowed_cpus,
        "pinned_cpu": pinned_cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "configs": _blas_configs()},
        "thread_env_inherited": inherited_env,
        "thread_env": {key: os.environ.get(key) for key in THREAD_VARS},
        "blas_threads": blas_threads(),
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(src),
        "machine": platform.machine(),
        "executable": sys.executable,
    }
