"""One OpenBLAS thread per process while echo cycles run.

numpy and scipy each ship their own OpenBLAS, each with a thread pool sized
to the machine.  A cycle's BLAS calls (the DOP853 stage combinations, the
displacement eigh of a state build) are far too small to gain from a second
thread, and the idle pool threads slow them several-fold.  Both libraries are
found by path, without importing scipy, and their thread counts set through
their own setters (the mechanism of threadpoolctl).  A library or symbol not
found is skipped and its count reported as None.  Loading scipy's copy here
is harmless: scipy reuses the loaded library when it is imported later.

Importing this module sets OPENBLAS_NUM_THREADS=1 unless it is already set,
so that both pools start with one thread when numpy and scipy load after it
(glzi's __init__ imports it first): no idle pool threads are created at load
and torn down at exit.  one_thread() and pin() still guard sweeps where numpy
was loaded earlier or the variable was set to more.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# package -> (library file pattern in <package>.libs, symbol suffix)
_LIBRARIES = {
    "numpy": ("libscipy_openblas64_*.so", "64_"),
    "scipy": ("libscipy_openblas-*.so", ""),
}


@lru_cache(maxsize=None)  # the search is two thirds of a _pools() call
def _find(package: str, pattern: str) -> Path | None:
    spec = importlib.util.find_spec(package)  # a top-level lookup imports nothing
    if spec is None or not spec.submodule_search_locations:
        return None
    libs = Path(list(spec.submodule_search_locations)[0]).parent / f"{package}.libs"
    return next(iter(sorted(libs.glob(pattern))), None)


def _pools() -> dict[str, tuple]:
    """(setter, getter) of each OpenBLAS pool found, by the package shipping it."""
    found = {}
    for package, (pattern, suffix) in _LIBRARIES.items():
        path = _find(package, pattern)
        if path is None:
            continue
        try:
            lib = ctypes.CDLL(str(path))
            setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        found[package] = (setter, getter)
    return found


def threads() -> dict[str, int | None]:
    """Current thread count of each pool; None where it is unknown."""
    pools = _pools()
    return {package: pools[package][1]() if package in pools else None
            for package in _LIBRARIES}


def pin() -> None:
    """Set every pool found to one thread (a process pool's initializer)."""
    for setter, _ in _pools().values():
        setter(1)


@contextmanager
def one_thread():
    """Pin every pool to one thread, yield threads(), restore the old counts."""
    pools = _pools()
    before = {package: getter() for package, (_, getter) in pools.items()}
    pin()
    try:
        yield threads()
    finally:
        for package, (setter, _) in pools.items():
            setter(before[package])
