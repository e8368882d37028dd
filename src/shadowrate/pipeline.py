"""Moving-window estimation of the implied riskless-rate series.

For each window end date t the engine calibrates (mu_t, sigma_t) on the
trailing M-row window, solves phi_t x = mu_t with phi_t = [1 | -sigma_t]
through its SVD, re-solves with the singular spectrum clamped against its
history, and clamps the solved rate and deflator-volatility components
against theirs. The dates run in chunks, each through three stages:

1. window moments: all the chunk's window means from one strided sum, and
   each window's covariance;
2. stacked factor and solve: one ``eigh`` (sign convention and clip
   included), the loadings and phi, one stacked SVD and the raw solves;
3. clamp recursion, the only stage that steps date by date: the spectrum
   levels, one batched re-solve, then the levels of ``[nu, sigma_pi...]``;
   the chunk fills its rows of the run's ``values`` and ``spectra``.

A ``calibrator=`` hook, handed one window per call, and the regression
route run one date per chunk, serially; that one fact about the route sets
both the chunk size and the pool. (The regression route would keep its bits
in full chunks, but the benchmark's peak-RSS reading rises with the rounds
a faster run fits: ROADMAP items 1 and 8.) A direct-route chunk holds the
dates whose N x N arrays fit ``CHUNK_BYTES``, and at least two, so from
N=65 a chunk exceeds that budget (1.2 MB at N=96).

Stages 1 and 2 of one chunk need nothing from another, so successive
direct-route chunks run them on a thread pool, one worker per usable CPU,
with at most two chunks per worker in flight; the calling thread takes the
results in date order and runs stage 3. A pooled run holds the BLAS under
numpy at one thread (``blas.one_thread``), since pool threads on top of a
multi-thread BLAS made the engine slower, and restores the caller's count
when it ends, also on an error. A one-date route, a single chunk and a BLAS
of unknown thread count run the same loop serially, on the calling thread,
and leave the BLAS alone.

Singular dates are masked, not raised: NaN marks their raw fields in
``values``, and the regularized path normally still produces values. Each
stacked call gives the same bits as its one-date form, in any thread, so the
output does not depend on where the chunks fall or which thread ran them, and
a run can be split at any date by carrying the clamp levels across the split.
``SrrRun.rows`` and ``singular_values`` are rebuilt from the arrays on each
access, so changing them leaves the run as it is.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from . import blas
# calibrate, clamp, regularize_singulars and solve_svd are the one-date forms
# of the stages below; they stay importable here, where benchmark/spans.py
# wraps them by name.
from .calibration import (METHODS, CalibratedModel, calibrate,  # noqa: F401
                          calibrate_windows)
from .market_data import DataError, DateLabel, ReturnMatrix, window, \
    _write_table
from .regularization import (MODES, band_step, clamp,  # noqa: F401
                             regularize_singulars, spectrum_indices)
from .solver import (assemble_phi, build_phi, norms, project,  # noqa: F401
                     residual_norms, singular, solve_svd, svd_factors,
                     svd_solve)

Calibrator = Callable[[ReturnMatrix], CalibratedModel]

# Working set of one direct-route chunk: 64 N^2 bytes (eight N x N float64
# arrays) per date; a chunk's two-date minimum exceeds it from N=65.
CHUNK_BYTES = 2 ** 19


@dataclass(frozen=True)
class PipelineConfig:
    """Window length, calibration route, clamp bands, and spectrum mode.

    ``svd_mode=None`` resolves by route: ``min-only`` for ``direct`` (the
    higher singular values are stable there) and ``all`` for ``regression``.
    """

    window_m: int = 2500
    method: str = "direct"
    epsilon: float = 0.005
    delta_nu: float = 1e-5
    delta_sigma: float = 1e-3
    svd_mode: str | None = None

    def __post_init__(self) -> None:
        if self.window_m < 2:
            raise ValueError(f"window_m must be >= 2, got {self.window_m}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        for name in ("epsilon", "delta_nu", "delta_sigma"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {value!r}")
        if self.svd_mode is not None and self.svd_mode not in MODES:
            raise ValueError(f"unknown svd_mode {self.svd_mode!r}")

    def resolved_svd_mode(self) -> str:
        if self.svd_mode is not None:
            return self.svd_mode
        return "all" if self.method == "regression" else "min-only"


@dataclass(frozen=True)
class SrrSeriesRow:
    """One output row; ``None`` marks a value unavailable at a degenerate date."""

    date: DateLabel
    nu_raw: float | None
    nu_eps: float | None
    nu_hat: float | None
    sigma_pi_raw: float | None
    sigma_pi_hat: float | None
    kappa_raw: float
    kappa_eps: float
    d_min_raw: float
    d_min_eps: float
    residual_norm: float | None


ROW_FIELDS = tuple(f.name for f in fields(SrrSeriesRow))


@dataclass(frozen=True)
class RegularizerStates:
    """Clamp levels carried across dates (and across split runs): the
    singular spectrum's N levels, the rate's level, and the N-1 levels of
    the deflator-volatility components. A zero level is unseeded. The bands
    are not state: a run clamps with the bands of the config it is given."""

    d_levels: np.ndarray
    nu_level: float
    sigma_levels: np.ndarray


@dataclass(frozen=True)
class SrrRun:
    """A run held as arrays: ``values[t]`` holds the ``SrrSeriesRow``
    fields after ``date`` for ``dates[t]``, in field order, NaN where the
    row has None, and ``spectra[t]`` that date's raw singular spectrum.
    ``states`` are the clamp levels after the last date, which warm-start a
    run that continues this one, and ``workers`` the threads that ran the
    run's stages 1 and 2b."""

    dates: tuple[DateLabel, ...]
    values: np.ndarray
    spectra: np.ndarray
    states: RegularizerStates
    workers: int = 1

    @property
    def rows(self) -> list[SrrSeriesRow]:
        """One row per date, None for NaN, built anew on each access."""
        return [SrrSeriesRow(date, *(None if v != v else v for v in row))
                for date, row in zip(self.dates, self.values.tolist())]

    @property
    def singular_values(self) -> list[tuple[DateLabel, np.ndarray]]:
        """``(date, spectrum)`` per date, copied anew on each access."""
        return list(zip(self.dates, self.spectra.copy()))


def run_srr_series(r: ReturnMatrix, cfg: PipelineConfig, *,
                   start_index: int | None = None,
                   end_index: int | None = None,
                   states: RegularizerStates | None = None,
                   calibrator: Calibrator | None = None) -> SrrRun:
    """Estimate the rate series at window end indices
    ``start_index..end_index``, in chunks of dates (see the module notes).

    Defaults cover every date with a full trailing window. The ``states``
    of a run whose ``end_index`` immediately precedes ``start_index`` seed
    the clamps with that run's levels, which step within the bands of
    ``cfg``; under the same ``cfg`` this continues the run bit-exactly.
    ``calibrator`` replaces the standard per-window calibration (used by
    tests to drive the solver with exact or scripted parameters).
    """
    total, n = r.values.shape
    if n < 2:
        raise ValueError(f"need at least 2 assets, got {n}")
    if calibrator is None and cfg.window_m <= n:
        raise ValueError(f"window_m={cfg.window_m} must exceed the asset "
                         f"count {n}")
    if total < cfg.window_m:
        raise DataError(f"insufficient history: {total} rows for a window "
                        f"of {cfg.window_m}")
    first = cfg.window_m - 1 if start_index is None else start_index
    last = total - 1 if end_index is None else end_index
    if first < cfg.window_m - 1:
        raise ValueError(f"start_index {first} precedes the first full window")
    if last >= total:
        raise ValueError(f"end_index {last} outside panel of {total} rows")
    if first > last:
        raise ValueError(f"start_index {first} after end_index {last}")

    levels = _carried_levels(states, n)
    clamped = spectrum_indices(cfg.resolved_svd_mode())
    d_band = (1.0 - cfg.epsilon, 1.0 + cfg.epsilon)
    x_bands = np.array([cfg.delta_nu] + [cfg.delta_sigma] * (n - 1))
    x_band = (1.0 - x_bands, 1.0 + x_bands)
    one_date = calibrator is not None or cfg.method == "regression"
    per_chunk = 1 if one_date else max(2, CHUNK_BYTES // (64 * n * n))
    ends = range(first, last + 1, per_chunk)
    values = np.ascontiguousarray(r.values)

    def systems(end: int):
        count = min(per_chunk, last + 1 - end)
        mu, phi = chunk_systems(r, values, end, count, cfg, calibrator)
        return (end, count, mu, phi) + factor_and_solve(phi, mu)

    workers = _engine_workers(one_date, len(ends))
    table = np.empty((last + 1 - first, len(ROW_FIELDS) - 1))
    spectra = np.empty((last + 1 - first, n))

    def take(chunks: Iterator, d_levels: np.ndarray,
             x_levels: np.ndarray) -> SrrRun:
        """Stage 3 on the chunks' stage-2 results, in date order."""
        for end, count, mu, phi, d, v, u_mu, x_raw in chunks:
            d_bar = d.copy()
            d_bar[:, clamped], d_levels[clamped] = clamp_levels(
                d[:, clamped], d_levels[clamped], d_band, range(count))
            eps_ok, x_eps, residual = resolve(phi, mu, u_mu, d_bar, v)
            hat, x_levels = clamp_levels(x_eps, x_levels, x_band,
                                         np.flatnonzero(eps_ok).tolist())
            at = slice(end - first, end - first + count)
            spectra[at] = d
            _fill(table[at], d, d_bar, x_raw, x_eps, hat, residual)
        return SrrRun(r.dates[first:last + 1], table, spectra,
                      RegularizerStates(d_levels, float(x_levels[0]),
                                        x_levels[1:]), workers)

    if workers == 1:
        return take(map(systems, ends), *levels)
    # imported here, so a serial run, such as every one-date update, does
    # not pay for the import
    from concurrent.futures import ThreadPoolExecutor
    with blas.one_thread():
        pool = ThreadPoolExecutor(workers, thread_name_prefix="shadowrate")
        try:
            return take(_in_date_order(pool, systems, ends, 2 * workers),
                        *levels)
        finally:
            # waits for the workers; after an error, the queued chunks
            # never start
            pool.shutdown(cancel_futures=True)


def _engine_workers(one_date: bool, chunks: int) -> int:
    """Threads that run stages 1 and 2b: one per usable CPU, up to one per
    chunk, on the direct route when the BLAS's thread count is known, for
    the run holds it at one thread; otherwise 1, the serial engine. A
    one-date route keeps user calibrators on the calling thread, and
    neither it nor a single chunk asks the BLAS anything."""
    if one_date or chunks < 2 or blas.threads() is None:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return min(len(os.sched_getaffinity(0)), chunks)
    return min(os.cpu_count() or 1, chunks)


def _in_date_order(pool, stage: Callable, items, in_flight: int) -> Iterator:
    """``map(stage, items)`` on ``pool``, with at most ``in_flight`` items
    submitted and not yet taken; the results come in the order of
    ``items``, and a stage's exception is raised where its result is
    taken."""
    pending: deque = deque()
    for item in items:
        pending.append(pool.submit(stage, item))
        if len(pending) == in_flight:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def _carried_levels(states: RegularizerStates | None,
                    n: int) -> tuple[np.ndarray, np.ndarray]:
    """Fresh copies of the N spectrum levels and the N levels of
    ``[nu, sigma_pi...]``, checked once per call."""
    if states is None:
        return np.zeros(n), np.zeros(n)
    if (np.shape(states.d_levels) != (n,)
            or np.shape(states.sigma_levels) != (n - 1,)):
        raise ValueError("clamp states do not match the panel's asset count")
    levels = np.empty(2 * n)
    levels[:n] = states.d_levels
    levels[n] = states.nu_level
    levels[n + 1:] = states.sigma_levels
    if not (np.isfinite(levels).all() and levels[:n].min() >= 0.0):
        raise ValueError(f"previous level must be finite, and a spectrum "
                         f"level not negative; got {states!r}")
    return levels[:n], levels[n:]


# ---------------------------------------------------------------------------
# Engine stages, each over the K dates of one chunk
# ---------------------------------------------------------------------------

def chunk_systems(r: ReturnMatrix, values: np.ndarray, end: int, count: int,
                  cfg: PipelineConfig, calibrator: Calibrator | None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Stages 1 and 2a: drifts (K, N) and phi (K, N, N) of the windows
    ending at rows ``end .. end + count - 1`` (``values`` is ``r.values``
    in C order). A ``calibrator`` is handed one window view per call."""
    if calibrator is None:
        mu, sigma = calibrate_windows(values, end, count, cfg.window_m,
                                      cfg.method)
        return mu, assemble_phi(sigma)
    model = calibrator(window(r, end, cfg.window_m))
    system = build_phi(model.sigma, model.mu)
    return system.mu[None], system.phi[None]


def factor_and_solve(phi: np.ndarray, mu: np.ndarray):
    """Stage 2b: one stacked SVD and the raw solves. Returns the spectra d
    (K, N), the right singular vectors v, the projections u' mu and the raw
    solutions (K, N), NaN at a singular date."""
    f = svd_factors(phi)
    u_mu = project(f.u, mu)
    return f.d, f.v, u_mu, _masked_solve(u_mu, f.d, f.v)[1]


def resolve(phi: np.ndarray, mu: np.ndarray, u_mu: np.ndarray,
            d_bar: np.ndarray, v: np.ndarray):
    """Stage 3b: the batched re-solve with the clamped spectra; returns the
    mask of non-singular dates, the solutions and their residuals against
    the unclamped phi."""
    ok, x = _masked_solve(u_mu, d_bar, v)
    return ok, x, residual_norms(phi, x, mu)


def _masked_solve(u_mu: np.ndarray, d: np.ndarray,
                  v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mask of non-singular spectra and the solutions; a singular date
    is solved with NaN for its spectrum, which makes its solution, and all
    that is computed from it, NaN without a warning."""
    ok = ~singular(d)
    return ok, svd_solve(u_mu, np.where(ok[:, None], d, math.nan), v)


def clamp_levels(raw: np.ndarray, levels: np.ndarray, band: tuple,
                 dates) -> tuple[np.ndarray, np.ndarray]:
    """Stages 3a and 3c: step ``levels`` through the rows ``dates`` of
    ``raw`` in order, each row clamped to the band ``(down, up)`` around
    the levels before it. Returns ``raw`` with those rows clamped and the
    final levels."""
    out = raw.copy()
    for j in dates:
        levels = band_step(levels, raw[j], *band)
        out[j] = levels
    return out, levels


def _fill(out: np.ndarray, d, d_bar, x_raw, x_eps, hat, residual) -> None:
    """Stage 3d: a chunk's rows of ``SrrRun.values``, one column per field
    of ``SrrSeriesRow`` after ``date``. A singular date's solves are NaN,
    and so are the fields computed from them."""
    out[:, 0] = x_raw[:, 0]
    out[:, 1] = x_eps[:, 0]
    out[:, 2] = hat[:, 0]
    out[:, 3] = norms(x_raw[:, 1:])
    out[:, 4] = norms(hat[:, 1:])
    out[:, 5] = d[:, 0]
    out[:, 6] = d_bar.max(axis=1)
    out[:, 7] = d[:, -1]
    out[:, 8] = d_bar.min(axis=1)
    out[:, 9] = residual
    with np.errstate(divide="ignore", over="ignore"):
        out[:, 5:7] /= out[:, 7:9]  # largest over smallest value
    # x / -0.0 is -inf: a zero smallest value of either sign gives inf
    out[:, 5:7][out[:, 7:9] == 0.0] = math.inf


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def write_rows_csv(run: SrrRun, path: Path | str) -> None:
    """The rate series: one line per date, a blank cell for None."""
    _write_table(path, ROW_FIELDS, run.dates, run.values)


def write_singular_csv(run: SrrRun, path: Path | str) -> None:
    """The raw singular spectrum of each date, largest value first."""
    header = ["date"] + [f"d_{i + 1}" for i in range(run.spectra.shape[1])]
    _write_table(path, header, run.dates, run.spectra)
