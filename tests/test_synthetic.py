"""Synthetic GBM panel tests: determinism, consistency, and moments."""

from __future__ import annotations

import numpy as np
import pytest

from shadowrate.market_data import log_returns
from shadowrate.synthetic import GbmSpec, simulate_gbm


def _spec(**overrides) -> GbmSpec:
    base = dict(mu=np.array([3e-4, 6e-4]), sigma=np.array([[0.012], [0.02]]),
                s0=np.array([100.0, 50.0]), steps=500, seed=42)
    base.update(overrides)
    return GbmSpec(**base)


def test_shapes_and_dates() -> None:
    prices, panel = simulate_gbm(_spec())
    assert prices.asset_ids == ("A1", "A2")
    assert prices.dates == tuple(range(500))
    assert panel.values.shape == (499, 2)
    assert panel.dates == tuple(range(1, 500))
    assert np.all(prices.prices > 0.0)
    assert prices.prices[0, 0] == 100.0 and prices.prices[0, 1] == 50.0


def test_returns_equal_log_returns_of_prices_exactly() -> None:
    prices, panel = simulate_gbm(_spec())
    recomputed = log_returns(prices, policy="error-on-gap")
    np.testing.assert_array_equal(panel.values, recomputed.values)
    assert panel.dates == recomputed.dates


def test_seed_determinism() -> None:
    a, _ = simulate_gbm(_spec())
    b, _ = simulate_gbm(_spec())
    c, _ = simulate_gbm(_spec(seed=43))
    np.testing.assert_array_equal(a.prices, b.prices)
    assert not np.array_equal(a.prices[:, 0], c.prices[:, 0])


def test_zero_volatility_gives_pure_drift() -> None:
    mu = np.array([1e-3, 2e-3])
    _, panel = simulate_gbm(_spec(mu=mu, sigma=np.zeros((2, 1))))
    # Drift-only returns survive the exp/log round trip to ~1e-12.
    np.testing.assert_allclose(panel.values,
                               np.tile(mu, (panel.values.shape[0], 1)),
                               rtol=0.0, atol=1e-12)


def test_law_of_large_numbers_moments() -> None:
    mu = np.array([4e-4, 7e-4])
    sigma = np.array([[0.015], [0.025]])
    spec = _spec(mu=mu, sigma=sigma, steps=100_000, seed=7)
    _, panel = simulate_gbm(spec)
    m = panel.values.shape[0]
    target = mu - 0.5 * (sigma ** 2).sum(axis=1)
    row_norms = np.sqrt((sigma ** 2).sum(axis=1))
    assert np.all(np.abs(panel.values.mean(axis=0) - target)
                  <= 4.0 * row_norms / np.sqrt(spec.steps))

    sample_cov = np.cov(panel.values.T, ddof=1)
    truth = sigma @ sigma.T
    bands = 5.0 * np.sqrt((np.outer(np.diag(truth), np.diag(truth))
                           + truth ** 2) / m)
    assert np.all(np.abs(sample_cov - truth) <= bands)


def test_spec_validation() -> None:
    with pytest.raises(ValueError):
        _spec(steps=1)
    with pytest.raises(ValueError):
        _spec(s0=np.array([100.0, -50.0]))
    with pytest.raises(ValueError):
        _spec(sigma=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        _spec(mu=np.array([1e-4]), sigma=np.zeros((1, 0)),
              s0=np.array([100.0]))
    with pytest.raises(ValueError):
        _spec(mu=np.array([np.inf, 1e-4]))
