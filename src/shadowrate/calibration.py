"""Per-window drift and volatility-loading calibration.

Both routes estimate an N x (N-1) loading matrix from the window's PCA: the
market is modelled as driven by N-1 shared factors, so the smallest
principal direction is dropped.

``direct``      : sigma[j, k] = sqrt(lambda_k) * w[j, k] for k < N-1.
``regression``  : ordinary least squares of the demeaned returns on the
                  standardized leading component scores (no intercept).

In exact arithmetic the two coincide whenever the standardization divisor
matches the PCA divisor; on real panels they differ through rounding and
through any divisor mismatch, so both are kept as distinct code paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market_data import DateLabel, ReturnMatrix
# center_columns and pca are not called here but stay importable from this
# module, where benchmark/spans.py wraps them by name.
from .pca import PcaResult, _eigenpairs, center_columns, pca  # noqa: F401

METHODS = ("direct", "regression")


@dataclass(frozen=True)
class CalibratedModel:
    """Window estimates: per-asset drift ``mu`` (N,), factor loadings
    ``sigma`` (N, N-1), the route used, and the window's end date."""

    mu: np.ndarray
    sigma: np.ndarray
    method: str
    window_end_date: DateLabel


def sigma_direct(p: PcaResult) -> np.ndarray:
    """Loadings from the leading N-1 eigenpairs: column k is sqrt(lambda_k) w_k."""
    lam = np.asarray(p.eigenvalues, dtype=np.float64)
    w = np.asarray(p.eigenvectors, dtype=np.float64)
    n = lam.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 assets, got {n}")
    if np.any(lam < 0.0):
        raise ValueError("negative eigenvalue in PCA result")
    return w[:, :n - 1] * np.sqrt(lam[:n - 1])


def sigma_regression(r: ReturnMatrix, p: PcaResult, ddof: int = 1) -> np.ndarray:
    """Loadings as no-intercept OLS coefficients of demeaned returns on the
    standardized leading N-1 component columns.

    Component columns with zero variance carry no signal and receive zero
    loadings (the degenerate-window case).
    """
    x = r.values
    m, n = x.shape
    if n < 2:
        raise ValueError(f"need at least 2 assets, got {n}")
    if ddof not in (0, 1):
        raise ValueError(f"ddof must be 0 or 1, got {ddof}")
    means = x.mean(axis=0)
    scale = max(1.0, float(np.max(np.abs(x))))
    if np.max(np.abs(means - p.column_means)) > 1e-8 * scale:
        raise ValueError("PCA result does not match the panel (column means differ)")
    xc = x - means

    scores = p.components[:, :n - 1]
    centered = scores - scores.mean(axis=0)
    variances = (centered * centered).sum(axis=0) / (m - ddof)
    live = variances > 0.0
    standardized = np.zeros_like(centered)
    standardized[:, live] = centered[:, live] / np.sqrt(variances[live])

    coef, *_ = np.linalg.lstsq(standardized, xc, rcond=None)
    coef[~live, :] = 0.0
    return coef.T


def calibrate(r: ReturnMatrix, method: str = "direct",
              ddof: int = 1) -> CalibratedModel:
    """Estimate (mu, sigma) from one window of log returns."""
    if method not in METHODS:
        raise ValueError(f"unknown calibration method {method!r}")
    m, n = r.values.shape
    if n < 2:
        raise ValueError(f"need at least 2 assets, got {n}")
    if m <= n:
        raise ValueError(f"window of {m} rows is too short for {n} assets "
                         f"(need M > N)")
    if ddof not in (0, 1):
        raise ValueError(f"ddof must be 0 or 1, got {ddof}")
    # The panel passed its finiteness checks when it was built, so the
    # window is centred and diagonalized without re-validation; the direct
    # route never reads the component scores and does not form them.
    means = r.values.mean(axis=0)
    x0 = r.values - means
    lam, w = _eigenpairs(x0, ddof)
    if method == "direct":
        sigma = w[:, :n - 1] * np.sqrt(lam[:n - 1])  # as in sigma_direct
    else:
        sigma = sigma_regression(r, PcaResult(lam, w, x0 @ w, means),
                                 ddof=ddof)
    if not np.all(np.isfinite(sigma)):
        raise ValueError("calibration produced non-finite loadings")
    return CalibratedModel(means, sigma, method, r.dates[-1])
