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
    """phi = u @ diag(d) @ v.T with d non-increasing and >= 0 (each a stack
    along the leading axis when phi is)."""

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
    return PhiSystem(assemble_phi(sigma), mu.copy())


def assemble_phi(sigma: np.ndarray) -> np.ndarray:
    """``[1 | -sigma]`` for loadings (N, N-1), or for a stack (K, N, N-1)."""
    phi = np.empty(sigma.shape[:-1] + (sigma.shape[-2],))
    phi[..., 0] = 1.0
    phi[..., 1:] = -sigma
    return phi


def svd_factors(phi: np.ndarray) -> SvdFactors:
    """The SVD of one matrix (N, N), or of a stack (K, N, N) in one call."""
    u, d, vh = np.linalg.svd(np.asarray(phi, dtype=np.float64))
    return SvdFactors(u, d, np.swapaxes(vh, -1, -2))


def singular(d: np.ndarray) -> np.ndarray:
    """Whether each spectrum (the last axis of ``d``) is numerically
    singular: its smallest value at or below ``PIVOT_FLOOR`` times its
    largest. A smallest value that is not positive always is, since
    ``PIVOT_FLOOR * d_max`` is non-negative or above ``d_max``."""
    return d.min(axis=-1) <= PIVOT_FLOOR * d.max(axis=-1)


def project(u: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """``u' mu`` for one system (N, N), (N,) or a stack (K, N, N), (K, N)."""
    return (np.swapaxes(u, -1, -2) @ mu[..., None])[..., 0]


def svd_solve(u_mu: np.ndarray, d: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``x = v diag(1/d) u' mu`` from the projection ``u_mu = u' mu``, for
    one system or a stack of them; ``d`` must have no zero entry."""
    return (v @ (u_mu / d)[..., None])[..., 0]


def norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of ``x`` along its last axis (the same bits as
    ``np.linalg.norm`` of each vector)."""
    return np.sqrt(np.vecdot(x, x))


def residual_norms(phi: np.ndarray, x: np.ndarray,
                   mu: np.ndarray) -> np.ndarray:
    """``|phi x - mu|`` for one system or a stack of them."""
    return norms((phi @ x[..., None])[..., 0] - mu)


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
    if not d_eff.size or singular(d_eff):
        raise SingularMatrixError(
            f"singular system: smallest effective singular value {d_min:g} "
            f"at or below floor {PIVOT_FLOOR * d_max:g}")
    x = svd_solve(project(f.u, mu), d_eff, f.v)
    sigma_pi = x[1:].copy()
    return DeflatorSolution(nu=float(x[0]), sigma_pi=sigma_pi,
                            sigma_pi_total=float(norms(sigma_pi)),
                            residual_norm=float(residual_norms(phi, x, mu)),
                            kappa=d_max / d_min)
