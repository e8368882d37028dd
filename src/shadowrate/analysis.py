"""Summary statistics and the composite-asset minimum-rate search.

The principal components of a centered return panel are mutually
uncorrelated portfolios ("composite assets") with variances equal to the
eigenvalues, so the minimum-variance long-only portfolio over the leading j
composites has the closed form q_i proportional to 1 / lambda_i (weights are
automatically non-negative). ``min_rate`` walks j upward from a base block
until growing the block stops paying: the first j whose portfolio volatility
or mean return rises by more than the stated tolerances ends the search.

``compare_full_universe`` solves the same long-only minimum-variance problem
over the original N assets (where no closed form exists) with pairwise
coordinate descent on the simplex, for comparison against the composite
result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pca import PcaResult


@dataclass(frozen=True)
class QuantileSummary:
    count: int
    mean: float
    minimum: float
    p25: float
    p50: float
    p75: float
    maximum: float


def quantiles(series) -> QuantileSummary:
    """Summarize a series, dropping ``None``/NaN markers. Quantiles use
    linear interpolation between order statistics (the same convention as
    ``numpy.quantile``'s default)."""
    values = np.array([float(v) for v in series
                       if v is not None and not math.isnan(float(v))])
    if values.size == 0:
        raise ValueError("no values to summarize after dropping markers")
    q25, q50, q75 = np.quantile(values, [0.25, 0.5, 0.75])
    return QuantileSummary(count=int(values.size), mean=float(values.mean()),
                           minimum=float(values.min()), p25=float(q25),
                           p50=float(q50), p75=float(q75),
                           maximum=float(values.max()))


# ---------------------------------------------------------------------------
# Composite-asset minimum-rate search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinRateResult:
    """Stopping index, its portfolio mean return and volatility, the weights
    over composites 1..j_star, and why the walk stopped
    ("tolerance-breach" | "zero-variance" | "exhausted")."""

    j_star: int
    r: float
    sigma_r: float
    weights: np.ndarray
    stop_reason: str


def min_variance_weights(lambdas: np.ndarray) -> np.ndarray:
    """Long-only minimum-variance weights over uncorrelated assets with
    variances ``lambdas``: q_i = (1/lambda_i) / sum(1/lambda)."""
    lambdas = np.asarray(lambdas, dtype=np.float64)
    if lambdas.ndim != 1 or lambdas.size == 0:
        raise ValueError(f"expected a non-empty 1-d variance vector, "
                         f"got shape {lambdas.shape}")
    if np.any(lambdas <= 0.0):
        raise ValueError("variances must be positive")
    inverse = 1.0 / lambdas
    return inverse / inverse.sum()


def _composite_block(lambdas: np.ndarray, means: np.ndarray,
                     j: int) -> tuple[float, float, np.ndarray]:
    q = min_variance_weights(lambdas[:j])
    r = float(q @ means[:j])
    sigma = float(np.sqrt(q @ (lambdas[:j] * q)))
    return r, sigma, q


def min_rate(p: PcaResult, mean_returns: np.ndarray, k0: int,
             tol_sigma: float = 0.0, tol_r: float = 0.0,
             return_previous: bool = False) -> MinRateResult:
    """Walk the composite blocks j = k0, k0+1, ... and stop on the first
    tolerance breach (volatility or mean return rising by more than
    tol_sigma / tol_r against the previous block), on a zero-variance
    composite (stop before it), or on exhausting all N composites.

    By default the breaching block's own portfolio is returned;
    ``return_previous=True`` returns block j-1 instead. Composite j's mean
    return is w_j' mean_returns plus the mean of its component scores
    (non-zero only if the panel was not centered before the PCA).
    """
    lambdas = np.asarray(p.eigenvalues, dtype=np.float64)
    mean_returns = np.asarray(mean_returns, dtype=np.float64)
    n = lambdas.shape[0]
    if mean_returns.shape != (n,):
        raise ValueError(f"mean_returns shape {mean_returns.shape} does not "
                         f"match {n} assets")
    if not isinstance(k0, int) or isinstance(k0, bool):
        raise ValueError(f"k0 must be an integer, got {k0!r}")
    if k0 >= n:
        raise ValueError(f"k0={k0} must be below the asset count {n}")
    if k0 < 2:
        raise ValueError(f"k0={k0} must be at least 2")
    if np.any(lambdas[:k0] <= 0.0):
        raise ValueError(f"zero-variance composite inside the base block "
                         f"of {k0}")

    means = p.components.mean(axis=0) + p.eigenvectors.T @ mean_returns

    r, sigma, q = _composite_block(lambdas, means, k0)
    j = k0
    reason = "exhausted"
    while j < n:
        if lambdas[j] <= 0.0:
            reason = "zero-variance"
            break
        r_next, sigma_next, q_next = _composite_block(lambdas, means, j + 1)
        if (sigma_next - sigma > tol_sigma) or (r_next - r > tol_r):
            reason = "tolerance-breach"
            if not return_previous:
                r, sigma, q, j = r_next, sigma_next, q_next, j + 1
            break
        r, sigma, q, j = r_next, sigma_next, q_next, j + 1
    return MinRateResult(j_star=j, r=r, sigma_r=sigma, weights=q,
                         stop_reason=reason)


# ---------------------------------------------------------------------------
# Full-universe comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FullUniverseResult:
    r: float
    sigma_r: float
    weights: np.ndarray
    sweeps: int


def compare_full_universe(result: MinRateResult, mean_returns: np.ndarray,
                          sample_covariance: np.ndarray, *,
                          tol: float = 1e-12,
                          max_sweeps: int = 20000) -> FullUniverseResult:
    """Long-only minimum-variance portfolio over the original assets.

    Minimizes w' C w subject to sum(w) = 1, w >= 0 by sweeping ordered asset
    pairs and applying the optimal mass transfer along each pair, clipped to
    keep both weights non-negative. Stops when the stationarity residual
    falls below ``tol`` relative to the largest asset variance, which bounds
    the portfolio variance and gradient, so a portfolio whose variance
    vanishes (a long-only null vector of the covariance) still converges;
    raises if ``max_sweeps`` sweeps do not converge. ``result`` is the
    composite-block portfolio this full-universe solution is compared
    against.
    """
    mean_returns = np.asarray(mean_returns, dtype=np.float64)
    cov = np.asarray(sample_covariance, dtype=np.float64)
    n = mean_returns.shape[0]
    if cov.shape != (n, n):
        raise ValueError(f"covariance shape {cov.shape} does not match "
                         f"{n} assets")
    if not (np.all(np.isfinite(cov)) and np.all(np.isfinite(mean_returns))):
        raise ValueError("non-finite inputs")
    if float(np.max(np.abs(cov - cov.T))) > 1e-10 * max(1.0, float(np.max(np.abs(cov)))):
        raise ValueError("covariance is not symmetric")
    cov = 0.5 * (cov + cov.T)
    if result.weights.shape[0] > n:
        raise ValueError("composite result has more blocks than assets")

    w = np.full(n, 1.0 / n)
    g = cov @ w
    floor = tol * max(float(np.max(np.diag(cov))), 1e-300)
    sweeps = 0
    while True:
        support = w > 0.0
        stationarity = float(np.max(g[support]) - np.min(g)) if support.any() else 0.0
        if stationarity <= floor:
            break
        if sweeps >= max_sweeps:
            raise ValueError(f"simplex coordinate descent did not converge "
                             f"in {max_sweeps} sweeps "
                             f"(residual {stationarity:g})")
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

    return FullUniverseResult(r=float(w @ mean_returns),
                              sigma_r=float(np.sqrt(max(w @ (cov @ w), 0.0))),
                              weights=w, sweeps=sweeps)
