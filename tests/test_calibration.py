"""Calibration tests: direct loadings, the regression route, and agreement.
The regression route's stacked loadings match the per-window reference in
``oracles`` bit for bit, in blocks of any size."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg

from shadowrate import calibration
from shadowrate.calibration import (CalibratedModel, calibrate,
                                    calibrate_windows, sigma_direct,
                                    sigma_regression)
from shadowrate.market_data import ReturnMatrix
from shadowrate.pca import PcaResult, center_columns, pca
from shadowrate.synthetic import GbmSpec, simulate_gbm

import oracles


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


def test_regression_windows_equal_one_window_calls() -> None:
    # several windows in one call, in blocks of the module's budget, give
    # the same bits as one call each
    rng = np.random.default_rng(8)
    values = 0.01 * rng.standard_normal((80, 4))
    end, m = 45, 30
    means, sigma = calibrate_windows(values, end, 7, m, "regression")
    for j in range(7):
        mu_j, sigma_j = calibrate_windows(values, end + j, 1, m, "regression")
        assert means[j].tobytes() == mu_j[0].tobytes()
        assert sigma[j].tobytes() == sigma_j[0].tobytes()


@settings(max_examples=80, deadline=None)
@given(n=st.integers(min_value=2, max_value=6),
       extra=st.integers(min_value=1, max_value=40),
       block=st.integers(min_value=2, max_value=4),
       count=st.sampled_from(["1", "B-1", "B", "B+1"]),
       constant=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_regression_matches_the_oracle_window_by_window(
        n, extra, block, count, constant, seed) -> None:
    assert isinstance(getattr(_umath_linalg, "lstsq", None), np.ufunc), (
        f"numpy {np.__version__} has no numpy.linalg._umath_linalg.lstsq, "
        f"the gelsd gufunc that calibration.sigma_regression calls")
    m = n + extra
    k = {"1": 1, "B-1": block - 1, "B": block, "B+1": block + 1}[count]
    values = 2e-4 + 0.01 * np.random.default_rng(seed).standard_normal(
        (m + k - 1, n))
    if constant:
        # two constant-return assets whose means are exact: their centred
        # columns are zero, and so is the variance of score column N-1
        values[:, :2] = [2.0 ** -10, -(2.0 ** -9)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(calibration, "CHUNK_BYTES", block * 64 * m * n)
        means, sigma = calibrate_windows(values, m - 1, k, m, "regression")
    for j in range(k):
        window = _panel(values[j:j + m])
        model = oracles.checked_calibrate(window, "regression")
        assert means[j].tobytes() == model.mu.tobytes()
        assert sigma[j].tobytes() == model.sigma.tobytes()
        x0, column_means = oracles.checked_center_columns(window.values)
        w = oracles.checked_pca(x0, column_means).eigenvectors
        assert sigma_regression(x0, w).tobytes() == \
            oracles.sigma_regression(x0, w).tobytes()
    if constant:
        assert not sigma[..., -1].any()


def test_a_gelsd_that_fails_to_converge_raises_numpys_error() -> None:
    # the column means overflow, so the standardized scores are NaN
    x0 = np.full((6, 3), 1e308)
    w = np.eye(3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(np.linalg.LinAlgError) as reference:
            oracles.sigma_regression(x0, w)
        for args in [(x0, w), (np.stack([x0, x0]), np.stack([w, w]))]:
            with pytest.raises(np.linalg.LinAlgError) as error:
                sigma_regression(*args)
            assert str(error.value) == str(reference.value) == \
                "SVD did not converge in Linear Least Squares"
