"""How a result was obtained: machine, libraries, BLAS threads, code."""

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

# OpenBLAS builds bundled with numpy and scipy export the thread query
# under one of these names
_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _first_line_with(path: str, key: str) -> str | None:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def machine() -> dict:
    mem_kb = _first_line_with("/proc/meminfo", "MemTotal")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _first_line_with("/proc/cpuinfo", "model name") or platform.processor(),
        "ram_mib": int(mem_kb.split()[0]) // 1024 if mem_kb else None,
        "platform": platform.platform(),
    }


def _blas_libraries() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if ".so" in p)


def blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS will use, as it reports it."""
    out = {}
    for path in _blas_libraries():
        lib = ctypes.CDLL(path)
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def _blas_config(module) -> dict:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, AttributeError):
        return {}
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def _git_commit(root: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    # a checkout that is not itself a repository may sit inside another one
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != str(root):
        return None
    return lines[1]


def source_sha256(src: Path) -> str:
    """Digest of the nhchain sources, for checkouts that are not git repos."""
    digest = hashlib.sha256()
    for path in sorted((src / "nhchain").rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def matvec_path() -> dict:
    """Whether numba imported and which COO matvec the dispatcher runs."""
    kernels = sys.modules.get("nhchain.kernels")
    enabled = getattr(kernels, "numba_enabled", None)
    return {
        "numba_imported": "numba" in sys.modules,
        "matvec_path": ("numba" if enabled() else "numpy") if enabled else "unknown",
    }


def provenance(nc, seed: int, root: Path, blas_env: tuple[str, ...]) -> dict:
    import numpy
    import scipy

    return {
        "machine": machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nhchain": getattr(nc, "__version__", None),
        "blas": {"numpy": _blas_config(numpy), "scipy": _blas_config(scipy)},
        "blas_env": {name: os.environ.get(name) for name in blas_env},
        "blas_threads": blas_threads(),
        **matvec_path(),
        "git_commit": _git_commit(root),
        "source_sha256": source_sha256(root / "src"),
        "seed": seed,
    }
