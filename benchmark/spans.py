"""Spans and counts recorded around the program's public functions.

The program has no timers of its own yet, so the traced run replaces each
layer's public functions, in the modules that call them, with wrappers that
record a span (name, start, end, parent) and a few exact counts. Spans stay
in memory until the traced operation ends and are then written out whole.
The wrappers only observe: every call goes to the original function with
the original arguments, and the outputs are checked to be identical to an
untraced run's.

``python -c "import spans; spans.traced_cli()" SPANS_JSON ARGS...`` runs the
program's CLI under these wrappers in a fresh process.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module that makes the call, attribute, span name); solve_svd is named
# per call, raw or re-solve, below.
WRAPPED = [
    ("shadowrate.cli", "load_prices", "market_data.load_prices"),
    ("shadowrate.cli", "log_returns", "market_data.log_returns"),
    ("shadowrate.cli", "center_columns", "pca.center_columns"),
    ("shadowrate.cli", "pca", "pca.pca"),
    ("shadowrate.cli", "run_srr_series", "pipeline.run_srr_series"),
    ("shadowrate.cli", "write_rows_csv", "pipeline.write_rows_csv"),
    ("shadowrate.cli", "write_singular_csv", "pipeline.write_singular_csv"),
    ("shadowrate.cli", "min_rate", "analysis.min_rate"),
    ("shadowrate.cli", "compare_full_universe",
     "analysis.compare_full_universe"),
    ("shadowrate.cli", "simulate_gbm", "synthetic.simulate_gbm"),
    ("shadowrate.synthetic", "log_returns", "market_data.log_returns"),
    ("shadowrate.pipeline", "window", "market_data.window"),
    ("shadowrate.pipeline", "calibrate", "calibration.calibrate"),
    ("shadowrate.pipeline", "build_phi", "solver.build_phi"),
    ("shadowrate.pipeline", "svd_factors", "solver.svd_factors"),
    ("shadowrate.pipeline", "solve_svd", None),
    ("shadowrate.pipeline", "regularize_singulars",
     "regularization.regularize_singulars"),
    ("shadowrate.pipeline", "clamp", "regularization.clamp"),
    ("shadowrate.regularization", "clamp", "regularization.clamp"),
    ("shadowrate.calibration", "center_columns", "pca.center_columns"),
    ("shadowrate.calibration", "pca", "pca.pca"),
    ("shadowrate.calibration", "sigma_regression",
     "calibration.sigma_regression"),
]


def _count_after(name: str, counts: Counter, args, result) -> None:
    if name == "pipeline.run_srr_series":
        counts["pipeline.dates"] += len(result.rows)
    elif name in ("pipeline.write_rows_csv", "pipeline.write_singular_csv"):
        counts["pipeline.bytes_written"] += os.path.getsize(args[1])
    elif name == "regularization.regularize_singulars":
        counts["regularization.spectrum_clamp_dates"] += int(
            (result[0].d_bar != args[0]).any())
    elif name == "analysis.compare_full_universe":
        counts["analysis.sweeps"] += result.sweeps


class Recorder:
    """Spans of one process, as [name, start, end, parent index] lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def call(self, name: str, fn, *args, **kwargs):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except ValueError as exc:
            if type(exc).__name__ == "SingularMatrixError":
                self.counts["solver.singular_raised"] += 1
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        _count_after(name, self.counts, args, result)
        return result

    def install(self) -> None:
        """Replace every function in ``WRAPPED`` by a recording wrapper."""
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            if name is None:
                def wrapper(*a, _fn=original, **k):
                    return self.call("solver.resolve" if k.get("d_override")
                                     is not None else "solver.raw_solve",
                                     _fn, *a, **k)
            else:
                def wrapper(*a, _fn=original, _name=name, **k):
                    return self.call(_name, _fn, *a, **k)
            setattr(module, attr, wrapper)
            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def traced_cli() -> None:
    out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import shadowrate.cli
    imported = time.perf_counter()
    rec = Recorder()
    rec.spans.append(["cli.import", start, imported, -1])
    rec.install()
    code = rec.call("cli.main", shadowrate.cli.main, argv)
    Path(out).write_text(json.dumps(rec.dump()), encoding="utf-8")
    sys.exit(code)


LAYER_METRICS = {
    # metric: (span name, what to take)
    "market_data.load_prices_s": ("market_data.load_prices", "busy"),
    "market_data.log_returns_s": ("market_data.log_returns", "busy"),
    "market_data.window_s": ("market_data.window", "busy"),
    "market_data.window_calls": ("market_data.window", "calls"),
    "pca.center_columns_s": ("pca.center_columns", "busy"),
    "pca.pca_s": ("pca.pca", "busy"),
    "pca.calls": ("pca.pca", "calls"),
    "calibration.calibrate_s": ("calibration.calibrate", "busy"),
    "calibration.self_s": ("calibration.calibrate", "self"),
    "calibration.sigma_regression_s": ("calibration.sigma_regression", "busy"),
    "solver.build_phi_s": ("solver.build_phi", "busy"),
    "solver.svd_factors_s": ("solver.svd_factors", "busy"),
    "solver.raw_solve_s": ("solver.raw_solve", "busy"),
    "solver.resolve_s": ("solver.resolve", "busy"),
    "regularization.regularize_singulars_s":
        ("regularization.regularize_singulars", "busy"),
    "regularization.clamp_s": ("regularization.clamp", "busy"),
    "regularization.clamp_calls": ("regularization.clamp", "calls"),
    "pipeline.run_srr_series_s": ("pipeline.run_srr_series", "busy"),
    "pipeline.self_s": ("pipeline.run_srr_series", "self"),
    "pipeline.write_rows_csv_s": ("pipeline.write_rows_csv", "busy"),
    "pipeline.write_singular_csv_s": ("pipeline.write_singular_csv", "busy"),
    "synthetic.simulate_gbm_s": ("synthetic.simulate_gbm", "busy"),
    "analysis.min_rate_s": ("analysis.min_rate", "busy"),
    "analysis.compare_full_universe_s":
        ("analysis.compare_full_universe", "busy"),
    "cli.self_s": ("cli.main", "self"),
}
COUNTS = ["solver.singular_raised", "regularization.spectrum_clamp_dates",
          "pipeline.dates", "pipeline.bytes_written", "analysis.sweeps"]


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Busy time, self time and call count per span name, summed over the
    dumps of every traced process, mapped to the per-layer metric names.
    ``cli.import_s`` is the median import time of one CLI process."""
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: Counter = Counter()
    for dump in dumps:
        spans = dump["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), children in zip(spans, child_time):
            busy[name] += end - start
            own[name] += end - start - children
            calls[name] += 1
        counts.update(dump["counts"])
    pick = {"busy": busy, "self": own, "calls": calls}
    out = {metric: float(pick[kind][name])
           for metric, (name, kind) in LAYER_METRICS.items()}
    out.update({name: float(counts[name]) for name in COUNTS})
    out["cli.import_s"] = statistics.median(
        end - start for dump in dumps
        for name, start, end, _ in dump["spans"] if name == "cli.import")
    return out
