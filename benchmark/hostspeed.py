"""Host speed, sampled alongside the measurements.

On the shared 2-core host this benchmark was built on, interpreter-bound
code runs up to twice as slow for seconds at a time, while BLAS calls keep
their speed; the slow spells are longer than a run, so no statistic over a
run's own samples hides them. A monitor process therefore runs a fixed
interpreter-bound task every ``INTERVAL_S`` and records the task's CPU time.
A time measured over an interval is scaled by ``NOMINAL_S`` over the median
task time within ``PAD_S`` of that interval, and so reads as seconds on the
quiet host. The monitor costs 3 to 5% of one core.

``python hostspeed.py OUT`` runs the monitor, writing "start cpu_seconds"
lines to OUT until it is terminated.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# the task's CPU time on the reference host in a fast spell
NOMINAL_S = 0.0015
INTERVAL_S = 0.05
PAD_S = 1.0


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def task() -> float:
    import numpy as np
    acc, v = 0.0, np.arange(5.0)
    for i in range(600):
        p = _Point(float(i), acc)
        acc += float((v * p.x).sum()) * 1e-9 + p.y * 0.5
    return acc


def _monitor(out_path: str) -> None:
    with open(out_path, "w", buffering=1, encoding="utf-8") as out:
        while True:
            start = time.perf_counter()
            cpu = time.thread_time()
            task()
            out.write(f"{start!r} {time.thread_time() - cpu!r}\n")
            time.sleep(INTERVAL_S)


class Monitor:
    """The monitor process and the scale factors read from its samples."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self._proc = subprocess.Popen([sys.executable, __file__, str(path)])
        self.starts: list[float] = []
        self.cpu: list[float] = []
        deadline = time.monotonic() + 30.0
        while self._count() < 3:
            if self._proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("host speed monitor did not start")
            time.sleep(0.02)

    def _count(self) -> int:
        return (self.path.read_text().count("\n")
                if self.path.exists() else 0)

    def stop(self) -> None:
        """End the monitor and read its samples; later calls do nothing."""
        if self._proc.returncode is not None:
            return
        self._proc.terminate()
        self._proc.wait()
        if self.path.exists():
            for line in self.path.read_text().splitlines():
                fields = line.split()
                if len(fields) == 2:
                    self.starts.append(float(fields[0]))
                    self.cpu.append(float(fields[1]))

    def scale(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the median task time in [t0, t1], widened by
        PAD_S and then to the nearest samples until at least three."""
        lo = bisect.bisect_left(self.starts, t0 - PAD_S)
        hi = bisect.bisect_right(self.starts, t1 + PAD_S)
        while hi - lo < 3 and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        return NOMINAL_S / statistics.median(self.cpu[lo:hi])


if __name__ == "__main__":
    _monitor(sys.argv[1])
