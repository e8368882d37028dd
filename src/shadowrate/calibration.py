"""Per-window drift and volatility-loading calibration.

Both routes estimate an N x (N-1) loading matrix from the window's PCA: the
market is modelled as driven by N-1 shared factors, so the smallest
principal direction is dropped.

``direct``      : sigma[j, k] = sqrt(lambda_k) * w[j, k] for k < N-1.
``regression``  : ordinary least squares of the demeaned returns on the
                  standardized leading component scores (no intercept).

Both divide by M-1, so in exact arithmetic the two coincide; on real panels
they differ through rounding, so both are kept as distinct code paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market_data import DateLabel, ReturnMatrix
# center_columns and pca are not called here but stay importable from this
# module, where benchmark/spans.py wraps them by name.
from .pca import center_columns, covariance, eigenpairs, pca  # noqa: F401

METHODS = ("direct", "regression")


@dataclass(frozen=True)
class CalibratedModel:
    """Window estimates: per-asset drift ``mu`` (N,), factor loadings
    ``sigma`` (N, N-1), the route used, and the window's end date."""

    mu: np.ndarray
    sigma: np.ndarray
    method: str
    window_end_date: DateLabel


def window_moments(values: np.ndarray, end: int, count: int,
                   m: int) -> tuple[np.ndarray, np.ndarray]:
    """Column means (K, N) and sample covariances (K, N, N) of the K =
    ``count`` trailing windows of ``m`` rows that end at rows ``end`` ..
    ``end + count - 1`` of the C-ordered panel ``values``.

    The means of all K windows come from one strided sum, which adds the
    rows in the same order as ``window.mean(axis=0)``; each covariance is
    formed from its own centred window.
    """
    row, col = values.strides
    n = values.shape[1]
    start = end - m + 1
    stacked = np.ndarray((m, count, n), np.float64, values, start * row,
                         (row, row, col))
    means = stacked.sum(axis=0) / m
    cov = np.empty((count, n, n))
    for j in range(count):
        cov[j] = covariance(values[start + j:end + j + 1] - means[j])
    return means, cov


def sigma_direct(lam: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Loadings from the leading N-1 eigenpairs (eigenvalues ``lam``
    descending and non-negative, eigenvector columns ``w``): column k is
    sqrt(lambda_k) w_k. Stacks (K, N) and (K, N, N) give (K, N, N-1)."""
    n = lam.shape[-1]
    return w[..., :n - 1] * np.sqrt(lam[..., None, :n - 1])


def sigma_regression(x0: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Loadings as no-intercept OLS coefficients of the column-centred window
    ``x0`` on its standardized leading N-1 component scores ``x0 @ w``
    (eigenvector columns ``w``, eigenvalues descending).

    Component columns with zero variance carry no signal and receive zero
    loadings (the degenerate-window case).
    """
    m, n = x0.shape
    if n < 2:
        raise ValueError(f"need at least 2 assets, got {n}")
    scores = (x0 @ w)[:, :n - 1]
    centered = scores - scores.mean(axis=0)
    variances = (centered * centered).sum(axis=0) / (m - 1)
    live = variances > 0.0
    standardized = np.zeros_like(centered)
    standardized[:, live] = centered[:, live] / np.sqrt(variances[live])

    coef, *_ = np.linalg.lstsq(standardized, x0, rcond=None)
    coef[~live, :] = 0.0
    return coef.T


def calibrate_windows(values: np.ndarray, end: int, count: int, m: int,
                      method: str) -> tuple[np.ndarray, np.ndarray]:
    """Drifts (K, N) and loadings (K, N, N-1) of the K = ``count`` windows
    of ``m`` rows ending at rows ``end`` .. ``end + count - 1`` of the
    C-ordered, finite panel ``values``: the window moments, one stacked
    eigendecomposition, then the loadings of ``method``. The regression
    route fits each window's scores in turn."""
    means, cov = window_moments(values, end, count, m)
    lam, w = eigenpairs(cov)
    if method == "direct":
        sigma = sigma_direct(lam, w)
    else:
        sigma = np.empty(w.shape[:2] + (w.shape[2] - 1,))
        for j in range(count):
            x0 = values[end + j - m + 1:end + j + 1] - means[j]
            sigma[j] = sigma_regression(x0, w[j])
    if not np.isfinite(sigma).all():
        raise ValueError("calibration produced non-finite loadings")
    return means, sigma


def calibrate(r: ReturnMatrix, method: str = "direct") -> CalibratedModel:
    """Estimate (mu, sigma) from one window of log returns."""
    if method not in METHODS:
        raise ValueError(f"unknown calibration method {method!r}")
    m, n = r.values.shape
    if n < 2:
        raise ValueError(f"need at least 2 assets, got {n}")
    if m <= n:
        raise ValueError(f"window of {m} rows is too short for {n} assets "
                         f"(need M > N)")
    # The panel passed its finiteness checks when it was built, so the
    # window is used without re-validation.
    means, sigma = calibrate_windows(np.ascontiguousarray(r.values), m - 1, 1,
                                     m, method)
    return CalibratedModel(means[0], sigma[0], method, r.dates[-1])
