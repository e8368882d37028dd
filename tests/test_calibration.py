"""Calibration tests: direct loadings, the regression route, and agreement."""

from __future__ import annotations

import numpy as np
import pytest

from shadowrate.calibration import (CalibratedModel, calibrate, sigma_direct,
                                    sigma_regression)
from shadowrate.market_data import ReturnMatrix
from shadowrate.pca import PcaResult, center_columns, pca
from shadowrate.synthetic import GbmSpec, simulate_gbm


def _panel(values: np.ndarray) -> ReturnMatrix:
    m, n = values.shape
    return ReturnMatrix(tuple(range(m)), tuple(f"A{j}" for j in range(n)),
                        values)


def test_sigma_direct_hand_oracle() -> None:
    # lambda_1 = 4e-4 with unit eigenvector (0.6, 0.8):
    # column = sqrt(4e-4) * (0.6, 0.8) = (0.012, 0.016).
    result = PcaResult(eigenvalues=np.array([4e-4, 0.0]),
                       eigenvectors=np.array([[0.6, -0.8], [0.8, 0.6]]),
                       components=np.zeros((10, 2)),
                       column_means=np.zeros(2))
    np.testing.assert_allclose(sigma_direct(result.eigenvalues,
                                            result.eigenvectors),
                               np.array([[0.012], [0.016]]), atol=1e-15)


def test_sigma_direct_zero_eigenvalue_gives_zero_column() -> None:
    result = PcaResult(eigenvalues=np.array([1e-4, 0.0, 0.0]),
                       eigenvectors=np.eye(3),
                       components=np.zeros((10, 3)),
                       column_means=np.zeros(3))
    sigma = sigma_direct(result.eigenvalues, result.eigenvectors)
    assert sigma.shape == (3, 2)
    np.testing.assert_array_equal(sigma[:, 1], np.zeros(3))


def test_calibrate_constant_panel() -> None:
    row = np.array([0.01, 0.02, 0.015])
    panel = _panel(np.tile(row, (8, 1)))
    model = calibrate(panel, method="direct")
    np.testing.assert_allclose(model.mu, row, atol=1e-18)
    np.testing.assert_array_equal(model.sigma, np.zeros((3, 2)))
    assert model.window_end_date == 7


def test_calibrate_rejects_short_window() -> None:
    panel = _panel(np.random.default_rng(0).standard_normal((3, 3)) * 0.01)
    with pytest.raises(ValueError, match="M > N"):
        calibrate(panel)


def test_calibrate_recovers_gbm_drift() -> None:
    mu = np.array([3e-4, 7e-4])
    sigma = np.array([[0.012], [0.02]])
    spec = GbmSpec(mu=mu, sigma=sigma, s0=np.array([50.0, 80.0]),
                   steps=20001, seed=902)
    _, panel = simulate_gbm(spec)
    model = calibrate(panel)
    # The estimated drift targets the log-drift mu_j - ||sigma_j||^2 / 2.
    target = mu - 0.5 * (sigma ** 2).sum(axis=1)
    m = panel.values.shape[0]
    bands = 3.0 * np.sqrt((sigma ** 2).sum(axis=1)) / np.sqrt(m)
    assert np.all(np.abs(model.mu - target) <= bands)


def test_regression_matches_direct_on_generic_panel() -> None:
    rng = np.random.default_rng(1)
    values = 0.02 * rng.standard_normal((400, 4)) + 2e-4
    panel = _panel(values)
    direct = calibrate(panel, method="direct")
    regression = calibrate(panel, method="regression")
    # With matching divisors the standardized-PC regression reproduces the
    # direct loadings up to round-off.
    np.testing.assert_allclose(regression.sigma, direct.sigma, atol=1e-12)
    assert direct.method == "direct"
    assert regression.method == "regression"


def test_identical_column_spans_on_exact_low_rank_panel() -> None:
    rng = np.random.default_rng(2)
    factors = rng.standard_normal((300, 2))
    loadings = rng.standard_normal((2, 3))
    panel = _panel(0.01 * factors @ loadings)
    direct = calibrate(panel, method="direct").sigma
    regression = calibrate(panel, method="regression").sigma

    def projector(a: np.ndarray) -> np.ndarray:
        q, _ = np.linalg.qr(a)
        return q @ q.T

    np.testing.assert_allclose(projector(direct), projector(regression),
                               atol=1e-10)


def test_regression_zero_panel_gives_zero_loadings() -> None:
    panel = _panel(np.full((10, 3), 0.004))
    x0, means = center_columns(panel.values)
    result = pca(x0, column_means=means)
    sigma = sigma_regression(x0, result.eigenvectors)
    np.testing.assert_array_equal(sigma, np.zeros((3, 2)))


def test_calibrated_model_shape_for_n_assets() -> None:
    rng = np.random.default_rng(4)
    panel = _panel(0.02 * rng.standard_normal((60, 5)))
    model = calibrate(panel)
    assert isinstance(model, CalibratedModel)
    assert model.mu.shape == (5,)
    assert model.sigma.shape == (5, 4)
    assert model.window_end_date == panel.dates[-1]
