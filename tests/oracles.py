"""Reference implementations kept in the test tree.

``solve_lu`` (pivoted LU through ``scipy.linalg``), ``solve_determinant``
(a determinant ratio) and ``srr_two_asset`` (the N = 2 closed form) are
routes to the deflator solution that share nothing with the library's SVD
solve, so the acceptance criteria can check it against them.

``oracle_srr_series`` is the original per-window engine, kept verbatim in
its arithmetic: every window is a validated copy, centred and diagonalized
through the checked PCA path with its component scores, and every clamped
level steps through its own scalar ``ScalarClampState`` via
``dataclasses.replace``. The library engine must reproduce its rows and
spectra bit for bit.

``sigma_regression`` is the regression route's loadings of one window,
fitted with ``np.linalg.lstsq``; the library's stacked form must match it
bit for bit, window by window.

``simplex_descent`` is the long-only minimum-variance solve that
``analysis.compare_full_universe`` ran before its active-set solve:
pairwise coordinate descent on the simplex. The library's portfolio must
satisfy the same optimality conditions and reach no higher a variance.

``band_step`` is the clamp rule in numpy, one step of every level at once;
``band_steps`` and ``clamp_levels`` in the library must match it bit for
bit while the levels are finite.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from shadowrate.calibration import METHODS, CalibratedModel, sigma_direct
from shadowrate.market_data import DataError, ReturnMatrix
from shadowrate.pca import PcaResult
from shadowrate.pipeline import PipelineConfig, SrrSeriesRow
from shadowrate.solver import (PIVOT_FLOOR, DeflatorSolution, PhiSystem,
                               SingularMatrixError, build_phi, solve_svd,
                               svd_factors)


# ---------------------------------------------------------------------------
# independent solver routes
# ---------------------------------------------------------------------------

class PivotError(SingularMatrixError):
    """An LU pivot fell at or below the floor; ``pivot_index`` names it."""

    def __init__(self, message: str, pivot_index: int):
        super().__init__(message)
        self.pivot_index = pivot_index


def condition_number(phi: np.ndarray) -> float:
    """Spectral condition number d_1 / d_N; +inf for an exactly singular matrix."""
    d = np.linalg.svd(np.asarray(phi, dtype=np.float64), compute_uv=False)
    d_min = float(d[-1])
    if d_min == 0.0:
        return math.inf
    return float(d[0]) / d_min


def solve_lu(system: PhiSystem) -> DeflatorSolution:
    """Solve via pivoted LU; raises with the failing pivot index if a pivot
    falls at or below ``PIVOT_FLOOR * max|phi|``."""
    phi, mu = system.phi, system.mu
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on exact singularity
        lu, piv = scipy.linalg.lu_factor(phi)
    pivots = np.abs(np.diag(lu))
    floor = PIVOT_FLOOR * float(np.max(np.abs(phi)))
    bad = np.nonzero(pivots <= floor)[0]
    if bad.size:
        index = int(bad[0])
        raise PivotError(f"singular system: pivot {index} has magnitude "
                         f"{float(pivots[index]):g} (floor {floor:g})", index)
    x = scipy.linalg.lu_solve((lu, piv), mu)
    sigma_pi = x[1:].copy()
    return DeflatorSolution(nu=float(x[0]), sigma_pi=sigma_pi,
                            sigma_pi_total=float(np.linalg.norm(sigma_pi)),
                            residual_norm=float(np.linalg.norm(phi @ x - mu)),
                            kappa=condition_number(phi))


def solve_determinant(system: PhiSystem) -> float:
    """Cramer-style cross-check: nu = det(phi with mu in column 0) / det(phi)."""
    phi, mu = system.phi, system.mu
    d = np.linalg.svd(phi, compute_uv=False)
    if float(d[-1]) <= PIVOT_FLOOR * float(d[0]):
        raise SingularMatrixError("singular system: determinant ratio undefined")
    phi_mu = phi.copy()
    phi_mu[:, 0] = mu
    return float(np.linalg.det(phi_mu) / np.linalg.det(phi))


def srr_two_asset(mu1: float, mu2: float, sigma1: float,
                  sigma2: float) -> tuple[float, float]:
    """Closed form for N = 2:

        nu      = (mu1 sigma2 - mu2 sigma1) / (sigma2 - sigma1)
        sigma_s = (mu1 - mu2) / (sigma2 - sigma1)

    Raises when sigma1 == sigma2 (the system is singular).
    """
    if sigma1 == sigma2:
        raise SingularMatrixError("two-asset closed form undefined for "
                                  "equal volatilities")
    spread = sigma2 - sigma1
    return (mu1 * sigma2 - mu2 * sigma1) / spread, (mu1 - mu2) / spread


# ---------------------------------------------------------------------------
# clamp: the numpy band step and the scalar clamp
# ---------------------------------------------------------------------------

def band_step(previous: np.ndarray, raw: np.ndarray, down, up) -> np.ndarray:
    """One step of independent levels in numpy: each raw value clipped to
    the band between ``previous * down`` and ``previous * up`` (per level
    or shared); a zero level passes its raw value through. This is the
    element-wise form of ``regularization.band_steps``."""
    lo = previous * down
    hi = previous * up
    return np.where(previous == 0.0, raw,
                    np.minimum(np.maximum(raw, np.minimum(lo, hi)),
                               np.maximum(lo, hi)))


def band_step_loop(raw: np.ndarray, levels: np.ndarray, band: tuple,
                   dates) -> tuple[np.ndarray, np.ndarray]:
    """The numpy form of ``pipeline.clamp_levels``: one ``band_step`` per
    date of ``dates``, in order."""
    out = raw.copy()
    for j in dates:
        levels = band_step(levels, raw[j], *band)
        out[j] = levels
    return out, levels


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
    # min and max return their first argument on a tie, so a raw value equal
    # to an edge takes the edge, zero sign included, as the rule does
    clamped = min(hi, max(lo, raw))
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


def checked_pca(x0: np.ndarray, column_means: np.ndarray) -> PcaResult:
    """Covariance eigenpairs with a per-column sign loop and the scores."""
    m, n = x0.shape
    if not np.all(np.isfinite(x0)):
        raise ValueError("panel contains non-finite values")
    scale = max(1.0, float(np.max(np.abs(x0))))
    if float(np.max(np.abs(x0.mean(axis=0)))) > 1e-8 * scale:
        raise ValueError("panel is not column-centered")
    cov = (x0.T @ x0) / (m - 1)
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


def sigma_regression(x0: np.ndarray, w: np.ndarray) -> np.ndarray:
    """No-intercept OLS of the centred window ``x0`` on its standardized
    leading N-1 component scores; zero-variance columns get zero rows."""
    m, n = x0.shape
    scores = (x0 @ w)[:, :n - 1]
    centered = scores - scores.mean(axis=0)
    variances = (centered * centered).sum(axis=0) / (m - 1)
    live = variances > 0.0
    standardized = np.zeros_like(centered)
    standardized[:, live] = centered[:, live] / np.sqrt(variances[live])
    coef, *_ = np.linalg.lstsq(standardized, x0, rcond=None)
    coef[~live, :] = 0.0
    return coef.T


def checked_calibrate(r: ReturnMatrix,
                      method: str = "direct") -> CalibratedModel:
    if method not in METHODS:
        raise ValueError(f"unknown calibration method {method!r}")
    x0, means = checked_center_columns(r.values)
    result = checked_pca(x0, means)
    if method == "direct":
        sigma = sigma_direct(result.eigenvalues, result.eigenvectors)
    else:
        sigma = sigma_regression(x0, result.eigenvectors)
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


# ---------------------------------------------------------------------------
# long-only minimum variance: pairwise coordinate descent on the simplex
# ---------------------------------------------------------------------------

def simplex_descent(cov: np.ndarray, tol: float = 1e-12,
                    max_sweeps: int = 20000) -> np.ndarray:
    """Weights minimizing w' C w subject to sum(w) = 1, w >= 0, by sweeping
    ordered asset pairs and applying the optimal mass transfer along each
    pair, clipped to keep both weights non-negative. Stops when the
    stationarity residual falls below ``tol`` relative to the largest asset
    variance, or after ``max_sweeps`` sweeps: where it stops, the portfolio
    is feasible, so its variance bounds the minimum from above."""
    n = cov.shape[0]
    w = np.full(n, 1.0 / n)
    g = cov @ w
    floor = tol * max(float(np.max(np.diag(cov))), 1e-300)
    sweeps = 0
    while True:
        support = w > 0.0
        stationarity = float(np.max(g[support]) - np.min(g)) if support.any() else 0.0
        if stationarity <= floor or sweeps == max_sweeps:
            return w
        sweeps += 1
        g = cov @ w
        for i in range(n):
            for j in range(i + 1, n):
                gap = g[i] - g[j]
                if gap == 0.0:
                    continue
                curvature = cov[i, i] + cov[j, j] - 2.0 * cov[i, j]
                if curvature > 0.0:
                    step = -gap / curvature
                else:
                    step = math.inf if gap < 0.0 else -math.inf
                # moving step from j to i; keep both weights >= 0
                step = min(max(step, -w[i]), w[j])
                if step == 0.0:
                    continue
                w[i] += step
                w[j] -= step
                g += step * (cov[:, i] - cov[:, j])
