"""Compare source trees on ``shadowrate srr`` wall time across asset counts,
and time the library's pooled engine against its serial one at N=5.

    python scripts/engine_scaling.py --tree parent=/path/to/parent \\
        --tree change=. --out scaling.json

For each N of ``--n`` the first tree's ``simulate --n N --steps 2901
--seed 5`` makes one price file. Each tree then runs ``srr --window 2500``
(401 dates) on it in its own process, ``--pairs`` times, alternating which
tree runs first. Every run records its wall time, the engine workers from
the manifest and the SHA-256 of both output CSVs, so the trees' bytes can
be compared.

The pool check runs in one process per run, with the last tree's ``src`` on
the path. It backfills 2,500 dates of ``simulate --n 5 --steps 5000 --seed
5`` at window 2500, once pooled and once on the serial engine (the BLAS
thread count reported unknown, so the BLAS keeps numpy's count),
alternating, ``--pool-runs`` times each.

Run it on a quiet host with the same ``OPENBLAS_NUM_THREADS`` for every
tree; the times are only comparable within one run of the script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

POOL_RUN = """
import hashlib, json, sys, time
from unittest import mock
from shadowrate import PipelineConfig, blas, load_prices, log_returns
from shadowrate.pipeline import run_srr_series
panel = log_returns(load_prices(sys.argv[1]))
cfg = PipelineConfig(window_m=2500)
run_srr_series(panel, cfg, end_index=2499)  # warm-up
serial = sys.argv[2] == "serial"
with mock.patch.object(blas, "threads",
                       (lambda: None) if serial else blas.threads):
    start = time.perf_counter()
    run = run_srr_series(panel, cfg, end_index=2499 + 2499)
    wall = time.perf_counter() - start
print(json.dumps({"wall_s": wall, "workers": run.workers,
                  "blas": blas.describe(),
                  "digest": hashlib.sha256(run.values.tobytes()
                                           + run.spectra.tobytes())
                  .hexdigest()}))
"""


def _env(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"))


def _cli(tree: Path, *argv: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "shadowrate", *argv],
                   env=_env(tree), check=True, capture_output=True)
    return time.perf_counter() - start


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2]}


def srr_scaling(trees: dict[str, Path], sizes: list[int], pairs: int,
                work: Path) -> dict:
    names = list(trees)
    out: dict = {}
    for n in sizes:
        prices = work / f"prices-{n}.csv"
        _cli(trees[names[0]], "simulate", "--n", str(n), "--steps", "2901",
             "--seed", "5", "--out", str(prices))
        runs: dict = {name: [] for name in names}
        for pair in range(pairs):
            order = names if pair % 2 == 0 else names[::-1]
            for name in order:
                rates = work / f"rates-{n}-{name}.csv"
                wall = _cli(trees[name], "srr", "--prices", str(prices),
                            "--window", "2500", "--out", str(rates))
                manifest = json.loads(
                    rates.with_suffix(".manifest.json").read_text())
                runs[name].append({
                    "wall_s": wall, "first": name == order[0],
                    "engine_workers": manifest["runtime"]["engine_workers"],
                    "rates": _digest(rates),
                    "singular": _digest(
                        rates.with_suffix(".singular-values.csv"))})
        walls = {name: [r["wall_s"] for r in runs[name]] for name in names}
        out[str(n)] = {
            "runs": runs,
            "wall_s": {name: _summary(walls[name]) for name in names},
            "same_bytes": len({(r["rates"], r["singular"])
                               for name in names for r in runs[name]}) == 1}
        if len(names) == 2:
            a, b = names
            out[str(n)][f"{b}_faster_in"] = sum(
                y < x for x, y in zip(walls[a], walls[b]))
        print(f"N={n}: " + ", ".join(
            f"{name} {out[str(n)]['wall_s'][name]['median']:.3f} s"
            for name in names) + f", same bytes {out[str(n)]['same_bytes']}",
            file=sys.stderr)
    return out


def pool_check(tree: Path, runs: int, work: Path) -> dict:
    prices = work / "prices-pool-5.csv"
    _cli(tree, "simulate", "--n", "5", "--steps", "5000", "--seed", "5",
         "--out", str(prices))
    results: dict = {"pooled": [], "serial": []}
    for i in range(runs):
        for mode in (("pooled", "serial") if i % 2 == 0
                     else ("serial", "pooled")):
            done = subprocess.run(
                [sys.executable, "-c", POOL_RUN, str(prices), mode],
                env=_env(tree), check=True, capture_output=True, text=True)
            results[mode].append(json.loads(done.stdout))
    walls = {mode: [r["wall_s"] for r in results[mode]] for mode in results}
    return {
        "runs": results,
        "wall_s": {mode: _summary(walls[mode]) for mode in walls},
        "pooled_faster_in": sum(p < s for p, s in zip(walls["pooled"],
                                                      walls["serial"])),
        "same_bytes": len({r["digest"] for mode in results
                           for r in results[mode]}) == 1}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tree", action="append", required=True,
                        help="NAME=PATH of a source tree; give two or more")
    parser.add_argument("--n", type=int, nargs="+",
                        default=[40, 64, 65, 96, 128])
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--pool-runs", type=int, default=16)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    trees = {name: Path(path).resolve() for name, path in
             (item.split("=", 1) for item in args.tree)}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        result = {
            "host": {"cpus": len(os.sched_getaffinity(0))
                     if hasattr(os, "sched_getaffinity") else os.cpu_count(),
                     "python": platform.python_version(),
                     "OPENBLAS_NUM_THREADS":
                         os.environ.get("OPENBLAS_NUM_THREADS")},
            "srr": srr_scaling(trees, args.n, args.pairs, work),
            "pool_n5": pool_check(list(trees.values())[-1], args.pool_runs,
                                  work)}
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
