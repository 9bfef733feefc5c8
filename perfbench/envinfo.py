"""Record of the machine and libraries a measurement ran on."""
from __future__ import annotations

import ctypes
import os
import platform
import sys


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _cache_sizes() -> dict:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(f"{base}/{entry}/level")
        kind = _read(f"{base}/{entry}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = _read(f"{base}/{entry}/size")
    return out


def _openblas_copy(path: str) -> dict:
    lib = ctypes.CDLL(path)
    info = {"library": os.path.basename(path)}
    for suffix in ("64_", ""):
        for prefix in ("scipy_openblas", "openblas"):
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get_config is not None and threads is not None:
                get_config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                info["config"] = get_config().decode()
                info["threads"] = threads()
                return info
    return info


def _openblas() -> list:
    """Version string and thread count of each OpenBLAS copy loaded (numpy
    and scipy wheels each bring their own)."""
    paths = []
    for line in (_read("/proc/self/maps") or "").splitlines():
        path = line.split()[-1]
        if "openblas" in path.lower() and path not in paths:
            paths.append(path)
    return [_openblas_copy(p) for p in paths]


def record() -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")},
    }
