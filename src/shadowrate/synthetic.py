"""Correlated geometric Brownian motion panels for oracle testing.

Prices follow the exact discretized log solution with unit time step: the
log return of asset j over one step is

    (mu_j - 0.5 * ||sigma_j||^2) + sum_k sigma[j, k] * z[k]

with z standard normal draws shared across assets. Normals come from
numpy's Philox counter-based bit generator under an explicit seed, so a
given spec always reproduces the same panel. The returned panel is exactly
``log_returns(prices)``, guaranteeing the two outputs are consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market_data import PricePanel, ReturnMatrix, log_returns

GENERATOR_NAME = "philox"


@dataclass(frozen=True)
class GbmSpec:
    """Simulation inputs: drifts (N,), loadings (N, N-1), initial prices (N,),
    the number of price points ``steps`` (so steps - 1 return rows), and the
    generator seed."""

    mu: np.ndarray
    sigma: np.ndarray
    s0: np.ndarray
    steps: int
    seed: int

    def __post_init__(self) -> None:
        mu = np.asarray(self.mu, dtype=np.float64)
        sigma = np.asarray(self.sigma, dtype=np.float64)
        s0 = np.asarray(self.s0, dtype=np.float64)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "s0", s0)
        n = mu.shape[0] if mu.ndim == 1 else 0
        if n < 2:
            raise ValueError(f"need at least 2 assets, got mu of shape {mu.shape}")
        if sigma.shape != (n, n - 1):
            raise ValueError(f"sigma must be ({n}, {n - 1}), got {sigma.shape}")
        if s0.shape != (n,):
            raise ValueError(f"s0 must be ({n},), got {s0.shape}")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))
                and np.all(np.isfinite(s0))):
            raise ValueError("non-finite simulation parameters")
        if np.any(s0 <= 0.0):
            raise ValueError("initial prices must be positive")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")


def simulate_gbm(spec: GbmSpec) -> tuple[PricePanel, ReturnMatrix]:
    """Simulate one panel; returns (prices of assets A1..AN on integer dates
    0..steps-1, the matching log-return panel)."""
    n = spec.mu.shape[0]
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    z = rng.standard_normal((spec.steps - 1, n - 1))
    drift = spec.mu - 0.5 * (spec.sigma * spec.sigma).sum(axis=1)
    increments = drift[np.newaxis, :] + z @ spec.sigma.T
    prices = np.empty((spec.steps, n))
    prices[0] = spec.s0
    prices[1:] = spec.s0[np.newaxis, :] * np.exp(np.cumsum(increments, axis=0))

    panel = PricePanel(tuple(range(spec.steps)),
                       tuple(f"A{j + 1}" for j in range(n)), prices)
    return panel, log_returns(panel, policy="error-on-gap")
