"""Thread count and compute kernel of the OpenBLAS that numpy bundles,
read (the count also set) through ``ctypes``.

numpy's wheels ship OpenBLAS as ``scipy_openblas`` in ``numpy.libs``; a
numpy built against another BLAS has no such library, and then the count
and the kernel are unknown (``None``) and nothing is set.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from functools import cache
from pathlib import Path

import numpy as np

_GET = "scipy_openblas_get_num_threads64_"
_SET = "scipy_openblas_set_num_threads64_"
_CORE = "scipy_openblas_get_corename64_"

# The count is process-wide, so the scopes of one_thread share one state:
# how many are open, and the count to restore when the last one closes.
_SCOPE_LOCK = threading.Lock()
_scopes = 0
_restore: int | None = None


@cache
def _calls() -> tuple | None:
    """OpenBLAS's calls for its thread count (get, set) and kernel, or None."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(path))
        if all(hasattr(lib, name) for name in (_GET, _SET, _CORE)):
            get, put, core = (getattr(lib, n) for n in (_GET, _SET, _CORE))
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            core.argtypes, core.restype = [], ctypes.c_char_p
            return get, put, core
    return None


def threads() -> int | None:
    """The threads the BLAS under numpy will use, or None if unknown."""
    calls = _calls()
    return None if calls is None else int(calls[0]())


def set_threads(count: int) -> None:
    """Make the BLAS under numpy use ``count`` threads; a no-op when its
    count is unknown."""
    calls = _calls()
    if calls is not None:
        calls[1](count)


@contextmanager
def one_thread():
    """Run the body with the BLAS at one thread, then restore the count it
    had before. Scopes may nest and overlap, in one thread or several: the
    first to open sets one thread, the last to close restores the count
    found by the first."""
    global _scopes, _restore
    with _SCOPE_LOCK:
        if _scopes == 0:
            _restore = threads()
            set_threads(1)
        _scopes += 1
    try:
        yield
    finally:
        with _SCOPE_LOCK:
            _scopes -= 1
            if _scopes == 0 and _restore is not None:
                set_threads(_restore)


def describe() -> dict:
    """The BLAS's name and version as numpy was built with them, its
    current thread count and the compute kernel it runs, which decides the
    output bits (``OPENBLAS_CORETYPE`` sets it); None where unknown."""
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    calls = _calls()
    return {"name": config.get("name"), "version": config.get("version"),
            "threads": threads(),
            "core": None if calls is None else calls[2]().decode()}
