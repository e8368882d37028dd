"""Benchmark of the shadowrate estimator: one workload per run.

    python3 benchmark/run.py --workload paper-n40 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout. The program is used only from
outside: its CLI runs as a separate process (``srr`` on the workload's
price file, and ``min-rate`` once for its checks) and the library is called
through its public functions (a backfill followed by single-date updates). Set-up, which makes
the inputs and warms the caches, is repeated ``SETUP_REPEATS`` times. Then
whole rounds of the same operations run until ``--seconds`` have passed,
and every output is checked against the benchmark's own computations.

``--trace 0`` reports the end-to-end metrics, each the median over the
run's samples, with times scaled to the quiet host's speed (hostspeed.py).
``--trace 1`` runs one round plainly and one under the span recorder of
spans.py and reports the per-layer metrics. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the run's report, with the
environment, the unscaled times and the worst check errors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import hostspeed
import spans
import workloads

SETUP_REPEATS = 3
CLI = "import sys; from shadowrate.cli import main; sys.exit(main(sys.argv[1:]))"
TRACED_CLI = "import spans; spans.traced_cli()"
UNITS = {"srr_wall_s": "s", "srr_cpu_s": "s", "srr_peak_rss_mb": "MB",
         "backfill_s": "s", "update_p50_ms": "ms", "setup_s": "s"}


class BenchError(RuntimeError):
    """The program failed; nothing can be measured."""


@dataclass
class Proc:
    start: float
    end: float
    cpu: float
    rss_mb: float
    stdout: str


class Runner:
    """Starts the program's CLI in its own process, plain or traced."""

    def __init__(self, root: Path, work: Path) -> None:
        self.work = work
        bench = Path(__file__).resolve().parent
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(bench)]))
        self.dumps: list[dict] = []

    def cli(self, argv: list[str], traced: bool = False) -> Proc:
        spans_path = self.work / f"spans-{len(self.dumps)}.json"
        cmd = [sys.executable, "-c", CLI, *argv]
        if traced:
            cmd[2:3] = [TRACED_CLI, str(spans_path)]
        out, err = self.work / "stdout.txt", self.work / "stderr.txt"
        with out.open("wb") as fo, err.open("wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, stdout=fo, stderr=fe,
                                    cwd=self.work)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            end = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise BenchError(f"shadowrate {argv[0]} exited {proc.returncode}: "
                             f"{err.read_text(errors='replace').strip()}")
        if traced:
            self.dumps.append(json.loads(spans_path.read_text()))
            spans_path.unlink()
        return Proc(start, end, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, out.read_text())


@dataclass
class Inputs:
    prices_path: Path
    prices: workloads.Prices
    panel: object                   # the library user's ReturnMatrix


@dataclass
class Tally:
    srr: list[Proc] = field(default_factory=list)
    min_rate: str | None = None     # min-rate's standard output
    # (start, end) of each library call
    backfill: list[tuple[float, float]] = field(default_factory=list)
    updates: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digests: set = field(default_factory=set)
    first: dict | None = None
    problems: list[str] = field(default_factory=list)


def simulate_argv(w: workloads.Workload, seed: int, out: Path | str) -> list[str]:
    return ["simulate", "--n", str(w.n), "--steps", str(w.return_rows + 1),
            "--seed", str(seed), "--out", str(out)]


def setup(w: workloads.Workload, seed: int, runner: Runner) -> Inputs:
    """Make the price file, the benchmark's reference copy of the prices
    and the library user's panel, and warm the program up."""
    from shadowrate import PipelineConfig, load_prices, log_returns, \
        run_srr_series
    path = runner.work / f"prices-{w.layout}.csv"
    if w.from_simulate:
        runner.cli(simulate_argv(w, seed, path))
        prices = workloads.read_wide_prices(path)
    else:
        prices = (workloads.singular_start_prices(w) if w.dup_rows
                  else workloads.spike_prices(w, seed))
        workloads.write_prices(prices, w.layout, path)
        runner.cli(["--version"])
    panel = log_returns(load_prices(path, layout=w.layout))
    run_srr_series(panel, PipelineConfig(window_m=w.window, method=w.method),
                   end_index=w.window - 1)
    return Inputs(path, prices, panel)


def _cell(v: float | None) -> str:
    return "" if v is None else repr(float(v))


def run_chain(w: workloads.Workload, panel, rec: spans.Recorder | None,
              tally: Tally) -> list[list[str]]:
    """Backfill then single-date updates, as rows of CSV cells."""
    from shadowrate import PipelineConfig, pipeline

    def srr(*args, **kwargs):
        if rec is None:
            return pipeline.run_srr_series(*args, **kwargs)
        return rec.call("pipeline.run_srr_series", pipeline.run_srr_series,
                        *args, **kwargs)

    cfg = PipelineConfig(window_m=w.window, method=w.method)
    first = w.window - 1
    start = time.perf_counter()
    run = srr(panel, cfg, end_index=first + w.backfill - 1)
    tally.backfill.append((start, time.perf_counter()))
    rows, states = list(run.rows), run.states
    for t in range(first + w.backfill, first + w.out_dates):
        start = time.perf_counter()
        run = srr(panel, cfg, start_index=t, end_index=t, states=states)
        tally.updates.append((start, time.perf_counter()))
        rows.extend(run.rows)
        states = run.states
    return [[row.date.isoformat(), _cell(row.nu_raw), _cell(row.nu_eps),
             _cell(row.nu_hat), _cell(row.sigma_pi_raw),
             _cell(row.sigma_pi_hat), _cell(row.kappa_raw),
             _cell(row.kappa_eps), _cell(row.d_min_raw),
             _cell(row.d_min_eps), _cell(row.residual_norm)] for row in rows]


def one_round(w: workloads.Workload, inputs: Inputs, runner: Runner,
              tally: Tally, traced: bool) -> None:
    rates = runner.work / "rates.csv"
    tally.srr.append(runner.cli(
        ["srr", "--prices", str(inputs.prices_path), "--layout", w.layout,
         "--window", str(w.window), "--method", w.method,
         "--out", str(rates)], traced))
    rec = None
    if traced:
        rec = spans.Recorder()
        rec.install()
    try:
        chain = run_chain(w, inputs.panel, rec, tally)
    finally:
        if rec is not None:
            rec.uninstall()
            runner.dumps.append(rec.dump())

    with rates.open(newline="") as fh:
        rate_lines = list(csv.reader(fh))
    spectra_path = rates.with_name("rates.singular-values.csv")
    tally.digests.add(hashlib.sha256(
        rates.read_bytes() + spectra_path.read_bytes()).hexdigest())
    try:
        checks.check_chain(rate_lines, chain)
    except checks.CheckFailed as exc:
        tally.problems.append(str(exc))
    if tally.first is None:
        with spectra_path.open(newline="") as fh:
            tally.first = {"rates": rate_lines, "spectra": list(csv.reader(fh))}
    # an operation is one output date, from the CLI or from the chain
    bad = checks.failed_dates(checks.parse_rates(rate_lines))
    tally.attempted += 2 * w.out_dates
    tally.failed += 2 * bad


def min_rate(w: workloads.Workload, inputs: Inputs, runner: Runner,
             tally: Tally, traced: bool) -> None:
    """One ``min-rate`` call, whose output must not change between calls.
    It is not a timed operation: on some seeds of the spike workload it
    fails (see README), so no end-to-end metric can rest on it."""
    if not w.min_rate:
        return
    out = runner.cli(["min-rate", "--prices", str(inputs.prices_path),
                      "--layout", w.layout], traced).stdout
    if tally.min_rate not in (None, out):
        tally.problems.append("min-rate output changed between calls")
    tally.min_rate = out


def verify(w: workloads.Workload, inputs: Inputs, tally: Tally) -> dict:
    """Independent checks of the first round's outputs; every later round
    must have produced the same bytes."""
    if tally.problems:
        raise checks.CheckFailed(tally.problems[0])
    if len(tally.digests) != 1:
        raise checks.CheckFailed("rounds produced different outputs")
    keep = inputs.prices.present.all(axis=1)
    dates = [d for d, k in zip(inputs.prices.dates, keep) if k]
    returns = inputs.prices.common_returns()
    worst = checks.check_series(
        returns, dates, w.window, checks.parse_rates(tally.first["rates"]),
        tally.first["spectra"],
        svd_mode="all" if w.method == "regression" else "min-only")
    if tally.min_rate is not None:
        checks.check_min_rate(returns, tally.min_rate)
    return worst


def environment() -> dict:
    import scipy
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{config.get('name')} {config.get('version')}",
            "blas_threads": blas_threads()}


def blas_threads() -> int | None:
    """Threads the BLAS under numpy will use, asked of OpenBLAS itself."""
    import ctypes
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def end_to_end(tally: Tally, setups: list[tuple[float, float]],
               speed: hostspeed.Monitor) -> tuple[dict, dict, dict]:
    """(metrics scaled to the quiet host, the same times unscaled, the
    scaled update tail)."""
    def scaled(intervals):
        return [(t1 - t0) * speed.scale(t0, t1) for t0, t1 in intervals]

    updates_ms = 1e3 * np.array(scaled(tally.updates))
    metrics = {
        "srr_wall_s": statistics.median(
            scaled((p.start, p.end) for p in tally.srr)),
        "srr_cpu_s": statistics.median(
            p.cpu * speed.scale(p.start, p.end) for p in tally.srr),
        "srr_peak_rss_mb": statistics.median(p.rss_mb for p in tally.srr),
        "backfill_s": statistics.median(scaled(tally.backfill)),
        "update_p50_ms": float(np.percentile(updates_ms, 50)),
        "setup_s": statistics.median(scaled(setups)),
    }
    raw_updates_ms = 1e3 * np.array([t1 - t0 for t0, t1 in tally.updates])
    unscaled = {
        "srr_wall_s": [p.end - p.start for p in tally.srr],
        "srr_cpu_s": [p.cpu for p in tally.srr],
        "backfill_s": [t1 - t0 for t0, t1 in tally.backfill],
        "update_p50_ms": float(np.percentile(raw_updates_ms, 50)),
        "setup_s": [t1 - t0 for t0, t1 in setups],
    }
    # the update tail is too unsteady on a shared host to carry a bound
    tail = {f"update_p{q}_ms": float(np.percentile(updates_ms, q))
            for q in (90, 99)}
    return metrics, unscaled, tail


def measure(w: workloads.Workload, seed: int, seconds: float, trace: bool,
            runner: Runner, speed: hostspeed.Monitor):
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = setup(w, seed, runner)
        setups.append((start, time.perf_counter()))
    tally = Tally()
    report: dict = {"workload": w.name, "seed": seed}
    if trace:
        start = time.perf_counter()
        one_round(w, inputs, runner, tally, traced=False)
        min_rate(w, inputs, runner, tally, traced=False)
        plain = time.perf_counter() - start
        if w.from_simulate:
            runner.cli(simulate_argv(w, seed, "traced-prices.csv"),
                       traced=True)
        start = time.perf_counter()
        one_round(w, inputs, runner, tally, traced=True)
        min_rate(w, inputs, runner, tally, traced=True)
        traced = time.perf_counter() - start
        metrics = spans.layer_metrics(runner.dumps)
        metrics["trace.overhead_s"] = traced - plain
        units = {k: "s" if k.endswith("_s") else "B" if k.endswith("bytes_written")
                 else "count" for k in metrics}
    else:
        start = time.perf_counter()
        while True:
            one_round(w, inputs, runner, tally, traced=False)
            if time.perf_counter() - start >= seconds:
                break
        min_rate(w, inputs, runner, tally, traced=False)
        speed.stop()
        metrics, report["unscaled"], report["scaled_tail"] = end_to_end(
            tally, setups, speed)
        units = UNITS
    report.update(rounds=len(tally.srr), update_samples=len(tally.updates),
                  environment=environment())
    try:
        report["worst_error_share_of_tolerance"] = verify(w, inputs, tally)
    except checks.CheckFailed as exc:
        report["check_failed"] = str(exc)
    return tally, metrics, units, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced input sizes, for the benchmark's tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "shadowrate" / "__init__.py").is_file():
        print(f"error: {root} holds no shadowrate source tree (src/shadowrate)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    w = workloads.WORKLOADS[args.workload]
    if args.smoke:
        w = workloads.smoke_size(w)
    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=root / ".bench_work"))
    speed = None
    try:
        speed = hostspeed.Monitor(work / "hostspeed.txt")
        runner = Runner(root, work)
        tally, metrics, units, report = measure(
            w, args.seed, args.seconds, bool(args.trace), runner, speed)
        if args.trace:
            trace_out = root / ".bench_work" / f"trace-{w.name}.json"
            trace_out.write_text(json.dumps(runner.dumps))
            report["trace_file"] = str(trace_out.relative_to(root))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 0
    finally:
        if speed is not None:
            speed.stop()
        shutil.rmtree(work, ignore_errors=True)
    correct = "check_failed" not in report
    if not correct:
        print(f"check failed: {report['check_failed']}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    print(f"attempted {tally.attempted}, failed {tally.failed}")
    print("report: " + json.dumps(report))
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
