"""``blas.one_thread`` scopes opened and closed from many threads at once:
the count reads one while any scope is open, and the count found by the
first is restored once, after the last."""

from __future__ import annotations

import sys
import threading
import time
from types import SimpleNamespace

from shadowrate import blas


def test_overlapping_scopes_restore_the_count_once(monkeypatch) -> None:
    fake = SimpleNamespace(count=2)

    # like a ctypes call, each BLAS call lets other threads run
    def threads() -> int:
        time.sleep(0)
        return fake.count

    def set_threads(count: int) -> None:
        time.sleep(0)
        fake.count = count

    monkeypatch.setattr(blas, "threads", threads)
    monkeypatch.setattr(blas, "set_threads", set_threads)
    wrong: list = []

    def scopes() -> None:
        for _ in range(2000):
            with blas.one_thread():
                time.sleep(0)
                if fake.count != 1:
                    wrong.append(fake.count)

    # more threads than cores, switching often, so open and close overlap
    callers = [threading.Thread(target=scopes) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert not wrong and fake.count == 2
