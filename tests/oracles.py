"""Reference implementations kept in the test tree.

``oracle_srr_series`` is the original per-window engine, kept verbatim in
its arithmetic: every window is a validated copy, centred and diagonalized
through the checked PCA path with its component scores, and every clamped
level steps through its own scalar ``ScalarClampState`` via
``dataclasses.replace``. The library engine must reproduce its rows and
spectra bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from shadowrate.calibration import (METHODS, CalibratedModel, sigma_direct,
                                    sigma_regression)
from shadowrate.market_data import DataError, ReturnMatrix
from shadowrate.pca import PcaResult
from shadowrate.pipeline import PipelineConfig, SrrSeriesRow
from shadowrate.solver import (SingularMatrixError, build_phi, solve_svd,
                               svd_factors)


# ---------------------------------------------------------------------------
# scalar clamp
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarClampState:
    epsilon: float
    previous: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive and finite, "
                             f"got {self.epsilon!r}")
        if self.previous is not None and not math.isfinite(self.previous):
            raise ValueError(f"previous level must be finite, got {self.previous!r}")


def scalar_clamp(state: ScalarClampState,
                 raw: float) -> tuple[float, ScalarClampState]:
    raw = float(raw)
    if not math.isfinite(raw):
        raise ValueError(f"raw value must be finite, got {raw!r}")
    previous = state.previous
    if previous is None or previous == 0.0:
        return raw, replace(state, previous=raw)
    lo = previous * (1.0 - state.epsilon)
    hi = previous * (1.0 + state.epsilon)
    if lo > hi:  # negative previous level flips the edges
        lo, hi = hi, lo
    clamped = min(max(raw, lo), hi)
    return clamped, replace(state, previous=clamped)


def scalar_regularize_singulars(d: np.ndarray, states: tuple, mode: str):
    d_bar = d.copy()
    new_states = list(states)
    indices = range(d.size) if mode == "all" else (d.size - 1,)
    for i in indices:
        d_bar[i], new_states[i] = scalar_clamp(states[i], float(d[i]))
    return d_bar, tuple(new_states)


# ---------------------------------------------------------------------------
# window, centring, PCA, calibration
# ---------------------------------------------------------------------------

def copied_window(panel: ReturnMatrix, end_index: int, m: int) -> ReturnMatrix:
    start = end_index - m + 1
    return ReturnMatrix(panel.dates[start:end_index + 1], panel.asset_ids,
                        panel.values[start:end_index + 1].copy())


def checked_center_columns(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2 or not np.all(np.isfinite(x)):
        raise ValueError("bad panel")
    means = x.mean(axis=0)
    return x - means, means


def checked_pca(x0: np.ndarray, column_means: np.ndarray,
                ddof: int = 1) -> PcaResult:
    """Covariance eigenpairs with a per-column sign loop and the scores."""
    m, n = x0.shape
    if not np.all(np.isfinite(x0)):
        raise ValueError("panel contains non-finite values")
    scale = max(1.0, float(np.max(np.abs(x0))))
    if float(np.max(np.abs(x0.mean(axis=0)))) > 1e-8 * scale:
        raise ValueError("panel is not column-centered")
    cov = (x0.T @ x0) / (m - ddof)
    lam, w = np.linalg.eigh(cov)
    lam = lam[::-1].copy()
    w = w[:, ::-1].copy()
    if float(lam[-1]) < -1e-12 * max(1.0, float(lam[0])):
        raise ValueError("covariance eigenvalue negative beyond the clip")
    np.clip(lam, 0.0, None, out=lam)
    for j in range(n):
        k = int(np.argmax(np.abs(w[:, j])))
        if w[k, j] < 0.0:
            w[:, j] = -w[:, j]
    return PcaResult(lam, w, x0 @ w, np.asarray(column_means, dtype=np.float64))


def checked_calibrate(r: ReturnMatrix, method: str = "direct",
                      ddof: int = 1) -> CalibratedModel:
    if method not in METHODS:
        raise ValueError(f"unknown calibration method {method!r}")
    x0, means = checked_center_columns(r.values)
    result = checked_pca(x0, means, ddof=ddof)
    if method == "direct":
        sigma = sigma_direct(result)
    else:
        sigma = sigma_regression(r, result, ddof=ddof)
    return CalibratedModel(means, sigma, method, r.dates[-1])


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleRun:
    rows: list[SrrSeriesRow]
    singular_values: list[tuple]
    states: tuple


def oracle_srr_series(r: ReturnMatrix, cfg: PipelineConfig, *,
                      start_index: int | None = None,
                      end_index: int | None = None,
                      states: tuple | None = None,
                      calibrator=None) -> OracleRun:
    """The per-window loop of ``run_srr_series`` with scalar clamp states
    ``(d_states, nu_state, sigma_states)``."""
    total, n = r.values.shape
    if total < cfg.window_m:
        raise DataError("insufficient history")
    first = cfg.window_m - 1 if start_index is None else start_index
    last = total - 1 if end_index is None else end_index
    mode = cfg.resolved_svd_mode()
    if states is None:
        states = (tuple(ScalarClampState(cfg.epsilon) for _ in range(n)),
                  ScalarClampState(cfg.delta_nu),
                  tuple(ScalarClampState(cfg.delta_sigma)
                        for _ in range(n - 1)))
    d_states, nu_state, sigma_states = states[0], states[1], list(states[2])
    cal = calibrator if calibrator is not None else \
        (lambda w: checked_calibrate(w, method=cfg.method))

    rows: list[SrrSeriesRow] = []
    spectra: list[tuple] = []
    for t in range(first, last + 1):
        model = cal(copied_window(r, t, cfg.window_m))
        system = build_phi(model.sigma, model.mu)
        factors = svd_factors(system.phi)
        d = factors.d
        d_min_raw = float(d[-1])
        kappa_raw = math.inf if d_min_raw == 0.0 else float(d[0]) / d_min_raw
        try:
            raw = solve_svd(system, factors=factors)
            nu_raw, sigma_pi_raw = raw.nu, raw.sigma_pi_total
        except SingularMatrixError:
            nu_raw = sigma_pi_raw = None

        d_bar, d_states = scalar_regularize_singulars(d, d_states, mode)
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
            nu_hat, nu_state = scalar_clamp(nu_state, nu_eps)
            hat = np.empty(n - 1)
            for k in range(n - 1):
                hat[k], sigma_states[k] = \
                    scalar_clamp(sigma_states[k], float(eps_sol.sigma_pi[k]))
            sigma_pi_hat = float(np.linalg.norm(hat))

        rows.append(SrrSeriesRow(
            date=r.dates[t], nu_raw=nu_raw, nu_eps=nu_eps, nu_hat=nu_hat,
            sigma_pi_raw=sigma_pi_raw, sigma_pi_hat=sigma_pi_hat,
            kappa_raw=kappa_raw, kappa_eps=kappa_eps,
            d_min_raw=d_min_raw, d_min_eps=d_min_eps,
            residual_norm=residual_norm))
        spectra.append((r.dates[t], d.copy()))
    return OracleRun(rows, spectra, (d_states, nu_state, tuple(sigma_states)))
