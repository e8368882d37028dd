"""Per-window drift and volatility-loading calibration.

Both routes estimate an N x (N-1) loading matrix from the window's PCA: the
market is modelled as driven by N-1 shared factors, so the smallest
principal direction is dropped.

``direct``      : sigma[j, k] = sqrt(lambda_k) * w[j, k] for k < N-1.
``regression``  : ordinary least squares of the demeaned returns on the
                  standardized leading component scores (no intercept).

Both divide by M-1, so in exact arithmetic the two coincide; on real panels
they differ through rounding, so both are kept as distinct code paths.

The regression route fits a chunk's windows in blocks, one call per block
of ``numpy.linalg._umath_linalg.lstsq``, the private ``gelsd`` gufunc behind
``np.linalg.lstsq`` (checked on numpy 2.4.6). Two threads running that call
are no faster than one, so the route runs serially.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .market_data import DateLabel, ReturnMatrix
# center_columns and pca are not called here but stay importable from this
# module, where benchmark/spans.py wraps them by name.
from .pca import center_columns, covariance, eigenpairs, pca  # noqa: F401

METHODS = ("direct", "regression")

# Working set of a chunk of dates or a block of regression windows: eight
# float64 arrays (64 bytes) per entry of a date's N x N or a window's M x N.
CHUNK_BYTES = 2 ** 19


@dataclass(frozen=True)
class CalibratedModel:
    """Window estimates: per-asset drift ``mu`` (N,), factor loadings
    ``sigma`` (N, N-1), the route used, and the window's end date."""

    mu: np.ndarray
    sigma: np.ndarray
    method: str
    window_end_date: DateLabel


def window_means(values: np.ndarray, end: int, count: int,
                 m: int) -> tuple[np.ndarray, np.ndarray]:
    """Column means (K, N) of the K = ``count`` trailing windows of ``m``
    rows that end at rows ``end`` .. ``end + count - 1`` of the C-ordered
    panel ``values``, from one strided sum that adds the rows in the same
    order as ``window.mean(axis=0)``, and the windows as a (K, M, N) view.
    """
    row, col = values.strides
    windows = np.ndarray((count, m, values.shape[1]), np.float64, values,
                         (end - m + 1) * row, (row, row, col))
    return windows.swapaxes(0, 1).sum(axis=0) / m, windows


def sigma_direct(lam: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Loadings from the leading N-1 eigenpairs (eigenvalues ``lam``
    descending and non-negative, eigenvector columns ``w``): column k is
    sqrt(lambda_k) w_k. Stacks (K, N) and (K, N, N) give (K, N, N-1)."""
    n = lam.shape[-1]
    return w[..., :n - 1] * np.sqrt(lam[..., None, :n - 1])


def sigma_regression(x0: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Loadings as no-intercept OLS coefficients of the column-centred window
    ``x0`` on its standardized leading N-1 component scores ``x0 @ w``
    (eigenvector columns ``w``, eigenvalues descending). Stacks (K, M, N)
    and (K, N, N) give (K, N, N-1), each window with the bits of its own
    ``np.linalg.lstsq``.

    Component columns with zero variance carry no signal and receive zero
    loadings (the degenerate-window case).
    """
    m, n = x0.shape[-2:]
    if n < 2:
        raise ValueError(f"need at least 2 assets, got {n}")
    scores = (x0 @ w)[..., :n - 1]
    centered = scores - scores.mean(axis=-2, keepdims=True)
    variances = (centered * centered).sum(axis=-2, keepdims=True) / (m - 1)
    live = variances > 0.0
    standardized = np.divide(centered, np.sqrt(variances), where=live,
                             out=np.zeros_like(centered))
    with np.errstate(call=_lstsq_failed, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        coef = _umath_linalg.lstsq(standardized, x0,
                                   np.finfo(np.float64).eps * max(m, n - 1),
                                   signature="ddd->ddid")[0]
    coef[~live[..., 0, :]] = 0.0
    return coef.swapaxes(-1, -2)


def _lstsq_failed(err: str, flag: int) -> None:
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def calibrate_windows(values: np.ndarray, end: int, count: int, m: int,
                      method: str) -> tuple[np.ndarray, np.ndarray]:
    """Drifts (K, N) and loadings (K, N, N-1) of the K = ``count`` windows
    of ``m`` rows ending at rows ``end`` .. ``end + count - 1`` of the
    C-ordered, finite panel ``values``: the window moments, one stacked
    eigendecomposition, then the loadings of ``method``. The regression
    route takes those steps once per block of windows."""
    means, windows = window_means(values, end, count, m)
    if method == "direct":
        cov = np.array([covariance(x - mu) for x, mu in zip(windows, means)])
        sigma = sigma_direct(*eigenpairs(cov))
    else:
        n = values.shape[1]
        sigma = np.empty((count, n, n - 1))
        block = max(1, CHUNK_BYTES // (64 * m * n))
        for j in range(0, count, block):
            x0 = windows[j:j + block] - means[j:j + block, None]
            sigma[j:j + block] = sigma_regression(
                x0, eigenpairs(covariance(x0))[1])
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
