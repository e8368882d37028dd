"""Moving-window estimation of the implied riskless-rate series.

For each window end date t the engine: slices the trailing M-row window,
calibrates (mu_t, sigma_t), assembles phi_t, factorizes it once, solves the
raw system, clamps the singular spectrum against its history and re-solves
with the clamped spectrum, then applies secondary clamp smoothing to the
solved rate and to each deflator-volatility component before taking the
component norm.

Dates where phi_t is numerically singular emit a row whose raw fields are
not-available markers instead of aborting the run; the regularized path,
whose smallest singular value is floored by the clamp history, normally
still produces values.

Every window is recomputed from scratch (no incremental updates) and the
date loop is strictly sequential, so a run is deterministic bit-for-bit and
can be split at any date by carrying the clamp states across the split.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .calibration import METHODS, CalibratedModel, calibrate
from .market_data import DataError, DateLabel, ReturnMatrix, window, \
    _format_date_label, _format_float, _parse_date_label
from .regularization import MODES, ClampState, regularize_singulars, clamp
from .solver import SingularMatrixError, build_phi, solve_svd, svd_factors

ROWS_HEADER = ("date,nu_raw,nu_eps,nu_hat,sigma_pi_raw,sigma_pi_hat,"
               "kappa_raw,kappa_eps,d_min_raw,d_min_eps,residual_norm")

Calibrator = Callable[[ReturnMatrix], CalibratedModel]


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


@dataclass(frozen=True)
class RegularizerStates:
    """Clamp histories carried across dates (and across split runs): the
    singular spectrum's N levels, the rate's level, and the N-1 levels of
    the deflator-volatility components."""

    d_state: ClampState
    nu_state: ClampState
    sigma_state: ClampState


@dataclass(frozen=True)
class SrrRun:
    rows: list[SrrSeriesRow]
    singular_values: list[tuple[DateLabel, np.ndarray]]
    states: RegularizerStates
    config: PipelineConfig


def _fresh_states(n: int, cfg: PipelineConfig) -> RegularizerStates:
    return RegularizerStates(d_state=ClampState(epsilon=cfg.epsilon),
                             nu_state=ClampState(epsilon=cfg.delta_nu),
                             sigma_state=ClampState(epsilon=cfg.delta_sigma))


def run_srr_series(r: ReturnMatrix, cfg: PipelineConfig, *,
                   start_index: int | None = None,
                   end_index: int | None = None,
                   states: RegularizerStates | None = None,
                   calibrator: Calibrator | None = None) -> SrrRun:
    """Run the window loop over end indices ``start_index..end_index``.

    Defaults cover every date with a full trailing window. Passing the
    ``states`` returned by a previous run whose ``end_index`` immediately
    precedes ``start_index`` continues that run bit-exactly. ``calibrator``
    replaces the standard per-window calibration (used by tests to drive the
    solver with exact or scripted parameters).
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

    mode = cfg.resolved_svd_mode()
    st = _fresh_states(n, cfg) if states is None else states
    for state, size in ((st.d_state, n), (st.sigma_state, n - 1)):
        if state.previous is not None and np.shape(state.previous) != (size,):
            raise ValueError("clamp states do not match the panel's asset "
                             "count")
    d_state, nu_state, sigma_state = st.d_state, st.nu_state, st.sigma_state
    cal = calibrator if calibrator is not None else \
        (lambda w: calibrate(w, method=cfg.method))

    rows: list[SrrSeriesRow] = []
    spectra: list[tuple[DateLabel, np.ndarray]] = []
    for t in range(first, last + 1):
        w = window(r, t, cfg.window_m)
        model = cal(w)
        system = build_phi(model.sigma, model.mu)
        factors = svd_factors(system.phi)
        d = factors.d
        d_min_raw = float(d[-1])
        kappa_raw = math.inf if d_min_raw == 0.0 else float(d[0]) / d_min_raw

        try:
            raw = solve_svd(system, factors=factors)
            nu_raw: float | None = raw.nu
            sigma_pi_raw: float | None = raw.sigma_pi_total
        except SingularMatrixError:
            nu_raw = sigma_pi_raw = None

        regularized, d_state = regularize_singulars(d, d_state, mode)
        d_bar = regularized.d_bar
        d_min_eps = float(np.min(d_bar))
        d_max_eps = float(np.max(d_bar))
        kappa_eps = math.inf if d_min_eps == 0.0 else d_max_eps / d_min_eps

        try:
            eps_sol = solve_svd(system, d_override=d_bar, factors=factors)
        except SingularMatrixError:
            eps_sol = None

        if eps_sol is None:
            nu_eps = nu_hat = sigma_pi_hat = residual_norm = None
        else:
            nu_eps = eps_sol.nu
            residual_norm = eps_sol.residual_norm
            nu_hat, nu_state = clamp(nu_state, nu_eps)
            hat_components, sigma_state = clamp(sigma_state, eps_sol.sigma_pi)
            sigma_pi_hat = float(np.linalg.norm(hat_components))

        rows.append(SrrSeriesRow(
            date=r.dates[t], nu_raw=nu_raw, nu_eps=nu_eps, nu_hat=nu_hat,
            sigma_pi_raw=sigma_pi_raw, sigma_pi_hat=sigma_pi_hat,
            kappa_raw=kappa_raw, kappa_eps=kappa_eps,
            d_min_raw=d_min_raw, d_min_eps=d_min_eps,
            residual_norm=residual_norm))
        spectra.append((r.dates[t], d.copy()))

    final = RegularizerStates(d_state, nu_state, sigma_state)
    return SrrRun(rows, spectra, final, cfg)


def trajectory(rows: list[SrrSeriesRow]) -> list[tuple[float, float]]:
    """Date-ordered (sigma_pi_hat, nu_hat) pairs; degenerate rows are skipped."""
    if not rows:
        raise ValueError("no rows to build a trajectory from")
    return [(row.sigma_pi_hat, row.nu_hat) for row in rows
            if row.sigma_pi_hat is not None and row.nu_hat is not None]


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def _cell(value: float | None) -> str:
    return "" if value is None else _format_float(value)


def write_rows_csv(rows: list[SrrSeriesRow], path: Path | str) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(ROWS_HEADER + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        for row in rows:
            writer.writerow([
                _format_date_label(row.date), _cell(row.nu_raw),
                _cell(row.nu_eps), _cell(row.nu_hat),
                _cell(row.sigma_pi_raw), _cell(row.sigma_pi_hat),
                _cell(row.kappa_raw), _cell(row.kappa_eps),
                _cell(row.d_min_raw), _cell(row.d_min_eps),
                _cell(row.residual_norm)])


def write_singular_csv(spectra: list[tuple[DateLabel, np.ndarray]],
                       path: Path | str) -> None:
    if not spectra:
        raise ValueError("no singular-value rows to write")
    n = len(spectra[0][1])
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date"] + [f"d_{i + 1}" for i in range(n)])
        for label, d in spectra:
            writer.writerow([_format_date_label(label)]
                            + [_format_float(v) for v in d])


def read_rows_csv(path: Path | str) -> list[SrrSeriesRow]:
    """Read back a rows CSV written by :func:`write_rows_csv`."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ROWS_HEADER.split(","):
            raise DataError(f"{path}: unexpected header {header!r}")
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 11:
                raise DataError(f"line {line_no}: expected 11 cells, "
                                f"got {len(row)}")
            label = _parse_date_label(row[0], line_no)

            def _value(cell: str) -> float | None:
                return None if cell == "" else float(cell)

            rows.append(SrrSeriesRow(
                date=label, nu_raw=_value(row[1]), nu_eps=_value(row[2]),
                nu_hat=_value(row[3]), sigma_pi_raw=_value(row[4]),
                sigma_pi_hat=_value(row[5]), kappa_raw=float(row[6]),
                kappa_eps=float(row[7]), d_min_raw=float(row[8]),
                d_min_eps=float(row[9]), residual_norm=_value(row[10])))
    return rows
