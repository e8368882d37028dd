"""Deflator drift/volatility solves for an all-risky market.

With N assets driven by N-1 shared factors, absence of arbitrage pins down a
unique state-price deflator whose drift and volatility solve the square
linear system

    phi x = mu,   phi = [ 1 | -sigma ],   x = [ nu, s_1, ..., s_{N-1} ],

where ``nu`` is the implied (shadow) riskless rate, ``s`` the deflator
volatility vector, ``mu`` the per-asset drifts and ``sigma`` the N x (N-1)
loading matrix. The system is solved through its SVD, which also allows a
substituted singular spectrum for the regularized solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_FLOOR = 1e-14


class SingularMatrixError(ValueError):
    """The coefficient matrix is numerically singular."""


@dataclass(frozen=True)
class PhiSystem:
    """Square coefficient matrix ``[1 | -sigma]`` and right-hand side ``mu``."""

    phi: np.ndarray
    mu: np.ndarray


@dataclass(frozen=True)
class SvdFactors:
    """phi = u @ diag(d) @ v.T with d non-increasing and >= 0."""

    u: np.ndarray
    d: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class DeflatorSolution:
    nu: float
    sigma_pi: np.ndarray
    sigma_pi_total: float
    residual_norm: float
    kappa: float


def build_phi(sigma: np.ndarray, mu: np.ndarray) -> PhiSystem:
    """Assemble the pricing system from loadings (N, N-1) and drifts (N,)."""
    sigma = np.asarray(sigma, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    if sigma.ndim != 2:
        raise ValueError(f"sigma must be 2-d, got shape {sigma.shape}")
    n, k = sigma.shape
    if k != n - 1:
        raise ValueError(f"sigma must be N x (N-1), got {sigma.shape}")
    if n < 2:
        raise ValueError(f"need at least 2 assets, got {n}")
    if mu.shape != (n,):
        raise ValueError(f"mu shape {mu.shape} does not match {n} assets")
    if not (np.all(np.isfinite(sigma)) and np.all(np.isfinite(mu))):
        raise ValueError("non-finite calibration inputs")
    phi = np.empty((n, n))
    phi[:, 0] = 1.0
    phi[:, 1:] = -sigma
    return PhiSystem(phi, mu.copy())


def svd_factors(phi: np.ndarray) -> SvdFactors:
    u, d, vh = np.linalg.svd(np.asarray(phi, dtype=np.float64))
    return SvdFactors(u, d, vh.T)


def solve_svd(system: PhiSystem, d_override: np.ndarray | None = None,
              factors: SvdFactors | None = None) -> DeflatorSolution:
    """Solve via SVD, optionally substituting the singular spectrum.

    With ``d_override`` the solve uses u diag(d_override) v.T in place of phi,
    but the reported residual is always against the original phi so the
    distortion introduced by the substitution stays observable. ``kappa`` is
    the condition number of the spectrum actually used.
    """
    phi, mu = system.phi, system.mu
    f = svd_factors(phi) if factors is None else factors
    if d_override is None:
        d_eff = f.d
    else:
        d_eff = np.asarray(d_override, dtype=np.float64)
        if d_eff.shape != f.d.shape:
            raise ValueError(f"override spectrum shape {d_eff.shape} does not "
                             f"match {f.d.shape}")
        if not np.all(np.isfinite(d_eff)):
            raise ValueError("override spectrum contains non-finite values")
    d_max = float(np.max(d_eff)) if d_eff.size else 0.0
    d_min = float(np.min(d_eff)) if d_eff.size else 0.0
    if d_min <= PIVOT_FLOOR * d_max or d_min <= 0.0:
        raise SingularMatrixError(
            f"singular system: smallest effective singular value {d_min:g} "
            f"at or below floor {PIVOT_FLOOR * d_max:g}")
    x = f.v @ ((f.u.T @ mu) / d_eff)
    sigma_pi = x[1:].copy()
    return DeflatorSolution(nu=float(x[0]), sigma_pi=sigma_pi,
                            sigma_pi_total=float(np.linalg.norm(sigma_pi)),
                            residual_norm=float(np.linalg.norm(phi @ x - mu)),
                            kappa=d_max / d_min)
