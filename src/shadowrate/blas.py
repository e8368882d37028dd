"""Thread count of the OpenBLAS that numpy bundles, read and set through
``ctypes``.

numpy's wheels ship OpenBLAS as ``scipy_openblas`` in ``numpy.libs``; a
numpy built against another BLAS has no such library, and then the count is
unknown (``None``) and nothing is set.
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

# The count is process-wide, so the scopes of one_thread share one state:
# how many are open, and the count to restore when the last one closes.
_SCOPE_LOCK = threading.Lock()
_scopes = 0
_restore: int | None = None


@cache
def _calls() -> tuple | None:
    """OpenBLAS's get and set functions for its thread count, or None."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, _GET) and hasattr(lib, _SET):
            get, put = getattr(lib, _GET), getattr(lib, _SET)
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
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
    """The BLAS's name and version as numpy was built with them, and its
    current thread count."""
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": config.get("name"), "version": config.get("version"),
            "threads": threads()}
