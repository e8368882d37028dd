"""Command-line interface.

Subcommands
-----------
srr       : moving-window rate estimation over a price CSV
simulate  : write a synthetic correlated-GBM price CSV
stats     : quantile summary of one column of an srr output CSV
select    : evenly-spread universe selection by market cap
min-rate  : composite-asset minimum-rate search over a return panel

File-writing commands also write a JSON run manifest (config echo, SHA-256
of the input file, tool version, and the seed for simulations) next to the
output, so a run can be reproduced byte-for-byte; ``srr``'s also records the
output digests, counts of dates and of blank cells, the Python, numpy and
BLAS versions, the BLAS threads and kernel, and the engine's workers.

Every command runs with the BLAS at one thread (restored on return): the
engine's N x N LAPACK calls are too small to gain from BLAS threads, and at
one thread the direct route spreads its chunks over the CPUs instead.

Exit codes: 0 success, 1 ingestion errors, 2 pipeline/numerical errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import platform
import sys
from datetime import date as _date, timedelta
from pathlib import Path

import numpy as np

from . import __version__, blas
from .analysis import compare_full_universe, min_rate, quantiles
from .calibration import METHODS
from .market_data import (ALIGNMENTS, LAYOUTS, DataError, load_prices,
                          load_universe, log_returns, read_return_panel,
                          select_assets, write_prices, _format_date_label,
                          _format_float, _number, _read_table)
from .pca import center_columns, covariance, pca
from .pipeline import (PipelineConfig, run_srr_series, write_rows_csv,
                       write_singular_csv)
from .synthetic import GENERATOR_NAME, GbmSpec, simulate_gbm

HASH_ALGORITHM = "sha256"
SIMULATE_BASE_DATE = _date(2000, 1, 3)


def _file_digest(path: Path) -> dict:
    """A manifest's record of one file: its path and SHA-256 digest."""
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return {"path": str(path), "algorithm": HASH_ALGORITHM,
            "digest": digest.hexdigest()}


def _write_manifest(out_path: Path, command: str, fields: dict) -> Path:
    manifest_path = out_path.with_suffix(".manifest.json")
    manifest = {"tool": "shadowrate", "version": __version__,
                "command": command, **fields}
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2)
                             + "\n", encoding="utf-8")
    return manifest_path


def _parse_numbers(text: str, flag: str, *shape: int) -> np.ndarray:
    """A ``shape`` array of comma-separated numbers, whose rows a matrix
    separates by ';'."""
    try:
        values = np.array([[_number(tok) for tok in row.split(",")]
                           for row in text.split(";")])
    except ValueError:  # a number outside the grammar, or ragged rows
        raise DataError(f"{flag}: expected comma-separated numbers, "
                        f"got {text!r}") from None
    if values.shape != (1, *shape)[-2:]:  # a vector is one row
        raise DataError(f"{flag}: expected {' by '.join(map(str, shape))} "
                        f"values, got {text!r}")
    return values.reshape(shape)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_srr(args: argparse.Namespace) -> int:
    prices_path = Path(args.prices)
    panel = log_returns(load_prices(prices_path, layout=args.layout),
                        policy=args.align)
    cfg = PipelineConfig(
        window_m=args.window, method=args.method, epsilon=args.epsilon,
        delta_nu=args.delta_nu, delta_sigma=args.delta_sigma,
        svd_mode={"min": "min-only", "all": "all", None: None}[args.svd_mode])
    run = run_srr_series(panel, cfg)

    out_path = Path(args.out)
    write_rows_csv(run, out_path)
    singular_path = out_path.with_suffix(".singular-values.csv")
    write_singular_csv(run, singular_path)
    # blank cells in the first three columns: nu_raw, nu_eps and nu_hat
    blank = np.isnan(run.values[:, :3])
    raw_blank, _, hat_blank = blank.sum(axis=0).tolist()
    manifest_path = _write_manifest(out_path, "srr", {
        "config": {**dataclasses.asdict(cfg),
                   "svd_mode": cfg.resolved_svd_mode(),
                   "layout": args.layout, "align": args.align},
        "input": _file_digest(prices_path),
        "outputs": [_file_digest(out_path), _file_digest(singular_path)],
        "counts": {"dates": len(run.dates), "raw_singular_dates": raw_blank,
                   "blank_nu_hat_dates": hat_blank},
        "runtime": {"python": platform.python_version(),
                    "numpy": np.__version__, "blas": blas.describe(),
                    "engine_workers": run.workers},
    })
    print(f"wrote {len(run.dates)} rows to {out_path} "
          f"(+ {singular_path.name}, {manifest_path.name})")
    if 2 * hat_blank > len(run.dates):  # a mostly blank nu_hat column
        first, last = (_format_date_label(run.dates[t]) for t in
                       np.flatnonzero(blank[:, 2])[[0, -1]])
        print(f"warning: nu_hat is blank on {hat_blank} of {len(run.dates)} "
              f"dates, from {first} to {last}", file=sys.stderr)
    return 0


def _default_parameters(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic demo parameters for an n-asset simulation."""
    mu = np.linspace(2e-4, 8e-4, n)
    rng = np.random.default_rng(1000 + n)
    sigma = 0.015 * rng.standard_normal((n, n - 1)) / np.sqrt(n - 1)
    s0 = np.full(n, 100.0)
    return mu, sigma, s0


def _cmd_simulate(args: argparse.Namespace) -> int:
    n = args.n
    if n < 2:  # the default parameters need it too
        raise ValueError(f"need at least 2 assets, got {n}")
    mu, sigma, s0 = _default_parameters(n)
    if args.mu is not None:
        mu = _parse_numbers(args.mu, "--mu", n)
    if args.sigma is not None:
        sigma = _parse_numbers(args.sigma, "--sigma", n, n - 1)
    if args.s0 is not None:
        s0 = _parse_numbers(args.s0, "--s0", n)
    spec = GbmSpec(mu=mu, sigma=sigma, s0=s0, steps=args.steps, seed=args.seed)
    prices, _ = simulate_gbm(spec)

    # Re-label the integer step dates as calendar dates for the CSV surface.
    dates = [SIMULATE_BASE_DATE + timedelta(days=m) for m in range(spec.steps)]
    out_path = Path(args.out)
    write_prices(dataclasses.replace(prices, dates=dates), out_path)
    manifest_path = _write_manifest(out_path, "simulate", {
        "config": {"n": n, "steps": spec.steps, "mu": mu.tolist(),
                   "sigma": sigma.tolist(), "s0": s0.tolist(),
                   "base_date": SIMULATE_BASE_DATE.isoformat()},
        "seed": spec.seed,
        "generator": GENERATOR_NAME,
        "output": _file_digest(out_path),
    })
    print(f"wrote {spec.steps} dates x {n} assets to {out_path} "
          f"(+ {manifest_path.name})")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    rows = _read_table(args.input, lambda header: args.column in header,
                       f"no column named {args.column!r}")
    column = next(rows).index(args.column)
    values: list[float | None] = []
    for line_no, row in rows:
        cell = row[column]
        try:
            values.append(None if cell == "" else _number(cell))
        except ValueError:
            raise DataError(f"line {line_no}: non-numeric value {cell!r} in "
                            f"column {args.column!r}") from None
    summary = quantiles(values)
    print("column,count,mean,min,p25,p50,p75,max")
    print(",".join([args.column, str(summary.count)]
                   + [_format_float(v) for v in
                      (summary.mean, summary.minimum, summary.p25,
                       summary.p50, summary.p75, summary.maximum)]))
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    universe = load_universe(Path(args.universe))
    for entry in select_assets(universe, args.n):
        print(entry.asset_id)
    return 0


def _cmd_min_rate(args: argparse.Namespace) -> int:
    if args.returns is not None:
        panel = read_return_panel(Path(args.returns))
    else:
        panel = log_returns(load_prices(Path(args.prices), layout=args.layout),
                            policy=args.align)

    centered, means = center_columns(panel.values)
    result = min_rate(pca(centered, column_means=means), means, args.k0,
                      tol_sigma=args.tol_sigma, tol_r=args.tol_r,
                      return_previous=args.return_previous)
    full = compare_full_universe(result, means, covariance(centered))

    print(f"j_star={result.j_star}")
    print(f"r={_format_float(result.r)}")
    print(f"sigma_r={_format_float(result.sigma_r)}")
    print(f"stop_reason={result.stop_reason}")
    print("weights=" + ",".join(_format_float(w) for w in result.weights))
    print(f"full_r={_format_float(full.r)}")
    print(f"full_sigma_r={_format_float(full.sigma_r)}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowrate",
        description="Shadow riskless rate estimation from risky-asset panels.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    price_flags = argparse.ArgumentParser(add_help=False)  # srr, min-rate
    price_flags.add_argument("--layout", choices=LAYOUTS, default=LAYOUTS[0])
    price_flags.add_argument("--align", choices=ALIGNMENTS,
                             default=ALIGNMENTS[0])
    defaults = PipelineConfig()  # the estimator's published defaults

    # numeric flags read through the one grammar; argparse names the type
    # in its errors: "argument --window: invalid integer value: '2_600'"
    def real(text: str) -> float:
        return _number(text)

    def integer(text: str) -> int:
        return _number(text, int)

    srr = sub.add_parser("srr", parents=[price_flags],
                         help="moving-window rate estimation")
    srr.add_argument("--prices", required=True, help="input price CSV")
    srr.add_argument("--window", type=integer, default=defaults.window_m)
    srr.add_argument("--method", choices=METHODS, default=defaults.method)
    srr.add_argument("--epsilon", type=real, default=defaults.epsilon)
    srr.add_argument("--delta-nu", type=real, default=defaults.delta_nu)
    srr.add_argument("--delta-sigma", type=real, default=defaults.delta_sigma)
    srr.add_argument("--svd-mode", choices=("min", "all"), default=None,
                     help="clamp only the smallest singular value or all "
                          "of them (default: by method)")
    srr.add_argument("--out", required=True, help="output CSV path")
    srr.set_defaults(handler=_cmd_srr)

    simulate = sub.add_parser("simulate",
                              help="write a synthetic GBM price CSV")
    simulate.add_argument("--n", type=integer, default=2, help="asset count")
    simulate.add_argument("--steps", type=integer, required=True,
                          help="number of price dates")
    simulate.add_argument("--seed", type=integer, required=True)
    simulate.add_argument("--mu", help="comma-separated drifts (length n)")
    simulate.add_argument("--sigma",
                          help="';'-separated rows of comma-separated "
                               "loadings (n rows x n-1 columns)")
    simulate.add_argument("--s0", help="comma-separated initial prices")
    simulate.add_argument("--out", required=True)
    simulate.set_defaults(handler=_cmd_simulate)

    stats = sub.add_parser("stats", help="quantile summary of an output column")
    stats.add_argument("--input", required=True, help="srr output CSV")
    stats.add_argument("--column", default="nu_hat")
    stats.set_defaults(handler=_cmd_stats)

    select = sub.add_parser("select", help="evenly-spread universe selection")
    select.add_argument("--universe", required=True,
                        help="asset_id,market_cap CSV")
    select.add_argument("--n", type=integer, required=True)
    select.set_defaults(handler=_cmd_select)

    min_rate_cmd = sub.add_parser("min-rate", parents=[price_flags],
                                  help="composite minimum-rate search")
    group = min_rate_cmd.add_mutually_exclusive_group(required=True)
    group.add_argument("--returns", help="wide return-panel CSV")
    group.add_argument("--prices", help="price CSV (converted to log returns)")
    min_rate_cmd.add_argument("--k0", type=integer, default=2)
    min_rate_cmd.add_argument("--tol-sigma", type=real, default=0.0)
    min_rate_cmd.add_argument("--tol-r", type=real, default=0.0)
    min_rate_cmd.add_argument("--return-previous", action="store_true",
                              help="report the last block before the breach "
                                   "instead of the breaching block")
    min_rate_cmd.set_defaults(handler=_cmd_min_rate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with blas.one_thread():  # see the module notes
            return args.handler(args)
    except (ValueError, ArithmeticError) as exc:  # DataError included
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, DataError) else 2


def entry() -> None:
    raise SystemExit(main())
