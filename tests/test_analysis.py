"""Quantile summaries, the composite minimum-rate walk, and the
full-universe active-set solve, checked against its optimality conditions
and against the pairwise coordinate descent in ``oracles``."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from shadowrate import analysis, cli
from shadowrate.analysis import (MinRateResult, compare_full_universe,
                                 min_rate, min_variance_weights, quantiles)
from shadowrate.market_data import ReturnMatrix, log_returns
from shadowrate.pca import PcaResult, center_columns, pca
from shadowrate.synthetic import GbmSpec, simulate_gbm

from helpers import write_return_panel


def _spectrum(lambdas, means_shift=None, n_rows=6) -> PcaResult:
    lam = np.asarray(lambdas, dtype=np.float64)
    n = lam.shape[0]
    if means_shift is None:
        comps = np.zeros((n_rows, n))
    else:
        comps = np.tile(np.asarray(means_shift, dtype=np.float64), (n_rows, 1))
    return PcaResult(lam, np.eye(n), comps, np.zeros(n))


# ---------------------------------------------------------------------------
# quantiles
# ---------------------------------------------------------------------------

def test_quantiles_odd_count_hits_order_statistics() -> None:
    s = quantiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert s.count == 5
    assert s.mean == pytest.approx(3.0)
    assert (s.minimum, s.maximum) == (1.0, 5.0)
    assert (s.p25, s.p50, s.p75) == (2.0, 3.0, 4.0)


def test_quantiles_interpolates_between_order_statistics() -> None:
    s = quantiles([4.0, 2.0, 1.0, 3.0])
    assert s.p25 == pytest.approx(1.75)
    assert s.p50 == pytest.approx(2.5)
    assert s.p75 == pytest.approx(3.25)


def test_quantiles_keep_the_bits_of_numpy_on_finite_data() -> None:
    rng = np.random.default_rng(6)
    for size in range(1, 40):
        values = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size)
        values[::4] = -0.0
        s = quantiles(values.tolist())
        expected = np.quantile(values, [0.25, 0.5, 0.75])
        assert [q.hex() for q in (s.p25, s.p50, s.p75)] == \
            [float(q).hex() for q in expected]
        assert s.mean.hex() == float(values.mean()).hex()


@pytest.mark.parametrize("series, expected", [
    ([1.0, math.inf, 2.0], (1.5, 2.0, math.inf)),
    ([math.inf, 3.0, math.inf, math.inf, 1.0], (3.0, math.inf, math.inf)),
    ([-math.inf, 1.0, 2.0, 3.0], (-math.inf, 1.5, 2.25)),
    ([-math.inf, math.inf, math.inf], (math.nan, math.inf, math.inf)),
])
def test_quantiles_interpolate_infinite_order_statistics(series,
                                                         expected) -> None:
    # numpy's own interpolation gives NaN next to an infinite value
    s = quantiles(series)
    np.testing.assert_array_equal((s.p25, s.p50, s.p75), expected)
    assert (s.minimum, s.maximum) == (min(series), max(series))


def test_quantiles_drops_markers() -> None:
    s = quantiles([None, 1.0, float("nan"), 5.0, None])
    assert s.count == 2
    assert s.mean == pytest.approx(3.0)
    with pytest.raises(ValueError):
        quantiles([None, float("nan")])


# ---------------------------------------------------------------------------
# minimum-variance weights over uncorrelated composites
# ---------------------------------------------------------------------------

def test_min_variance_weights_two_asset_oracle() -> None:
    q = min_variance_weights(np.array([4.0, 1.0]))
    np.testing.assert_allclose(q, [0.2, 0.8], atol=1e-12)
    sigma = math.sqrt(float(q @ (np.array([4.0, 1.0]) * q)))
    assert sigma == pytest.approx(0.8944271909999159, abs=1e-15)
    assert sigma == pytest.approx(math.sqrt(0.8), abs=1e-15)


def test_min_variance_weights_closed_form_and_monotonicity() -> None:
    lam = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
    sigmas = []
    for j in range(2, 6):
        q = min_variance_weights(lam[:j])
        np.testing.assert_allclose(q, (1 / lam[:j]) / np.sum(1 / lam[:j]),
                                   rtol=1e-14)
        # harmonic closed form for the attained volatility
        sigma = math.sqrt(float(q @ (lam[:j] * q)))
        assert sigma == pytest.approx(1.0 / math.sqrt(np.sum(1 / lam[:j])),
                                      rel=1e-14)
        sigmas.append(sigma)
    assert all(b < a for a, b in zip(sigmas, sigmas[1:]))


def test_min_variance_weights_validation() -> None:
    with pytest.raises(ValueError):
        min_variance_weights(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        min_variance_weights(np.array([]))
    with pytest.raises(ValueError):
        min_variance_weights(np.eye(2))


# ---------------------------------------------------------------------------
# the minimum-rate walk
# ---------------------------------------------------------------------------

def test_min_rate_breach_keeps_breaching_block_by_default() -> None:
    p = _spectrum([4.0, 1.0, 0.25])
    mu = np.array([0.01, 0.01, 0.05])
    out = min_rate(p, mu, k0=2)
    assert out.stop_reason == "tolerance-breach"
    assert out.j_star == 3
    q3 = np.array([0.25, 1.0, 4.0]) / 5.25
    np.testing.assert_allclose(out.weights, q3, rtol=1e-14)
    assert out.r == pytest.approx(float(q3 @ mu), rel=1e-14)
    assert out.sigma_r == pytest.approx(1.0 / math.sqrt(5.25), rel=1e-14)


def test_min_rate_breach_return_previous() -> None:
    p = _spectrum([4.0, 1.0, 0.25])
    mu = np.array([0.01, 0.01, 0.05])
    out = min_rate(p, mu, k0=2, return_previous=True)
    assert out.stop_reason == "tolerance-breach"
    assert out.j_star == 2
    np.testing.assert_allclose(out.weights, [0.2, 0.8], atol=1e-14)
    assert out.r == pytest.approx(0.01, rel=1e-14)
    assert out.sigma_r == pytest.approx(math.sqrt(0.8), rel=1e-14)


def test_min_rate_tolerance_blocks_breach() -> None:
    p = _spectrum([4.0, 1.0, 0.25])
    mu = np.array([0.01, 0.01, 0.05])
    out = min_rate(p, mu, k0=2, tol_r=1.0)
    assert out.stop_reason == "exhausted"
    assert out.j_star == 3


def test_min_rate_exhausts_on_declining_means() -> None:
    p = _spectrum([4.0, 1.0, 0.25])
    out = min_rate(p, np.array([0.05, 0.01, 0.001]), k0=2)
    assert out.stop_reason == "exhausted"
    assert out.j_star == 3
    assert out.weights.shape == (3,)


def test_min_rate_stops_before_zero_variance_composite() -> None:
    p = _spectrum([4.0, 1.0, 0.0])
    out = min_rate(p, np.array([0.01, 0.01, 0.05]), k0=2)
    assert out.stop_reason == "zero-variance"
    assert out.j_star == 2
    np.testing.assert_allclose(out.weights, [0.2, 0.8], atol=1e-14)


def test_min_rate_uncentered_component_means_enter_returns() -> None:
    shift = np.array([0.001, 0.002, 0.003])
    p = _spectrum([4.0, 1.0, 0.25], means_shift=shift)
    out = min_rate(p, np.zeros(3), k0=2, return_previous=True)
    assert out.stop_reason == "tolerance-breach"  # block 3 mean is higher
    assert out.j_star == 2
    expected = 0.2 * shift[0] + 0.8 * shift[1]
    assert out.r == pytest.approx(expected, rel=1e-12)


def test_min_rate_validation() -> None:
    p = _spectrum([4.0, 1.0, 0.25])
    mu = np.zeros(3)
    with pytest.raises(ValueError, match="at least 2"):
        min_rate(p, mu, k0=1)
    with pytest.raises(ValueError, match="below the asset count"):
        min_rate(p, mu, k0=3)
    with pytest.raises(ValueError, match="integer"):
        min_rate(p, mu, k0=2.0)  # type: ignore[arg-type]
    with pytest.raises(ValueError, match="shape"):
        min_rate(p, np.zeros(2), k0=2)
    bad = _spectrum([4.0, 0.0, 0.25])
    with pytest.raises(ValueError, match="base block"):
        min_rate(bad, mu, k0=2)


@pytest.mark.parametrize("name", ["tol_sigma", "tol_r"])
def test_min_rate_rejects_a_nan_tolerance(name) -> None:
    # every comparison with NaN is false, so a NaN tolerance would never
    # breach and the walk would run on past the block that breaches
    p = _spectrum([4.0, 1.0, 0.25])
    with pytest.raises(ValueError, match=f"^{name} must not be NaN$"):
        min_rate(p, np.array([0.01, 0.01, 0.05]), k0=2, **{name: math.nan})


def test_min_rate_accepts_infinite_and_negative_tolerances() -> None:
    p = _spectrum([4.0, 1.0, 0.25])
    mu = np.array([0.01, 0.01, 0.05])
    never = min_rate(p, mu, k0=2, tol_sigma=math.inf, tol_r=math.inf)
    assert (never.stop_reason, never.j_star) == ("exhausted", 3)
    always = min_rate(p, np.array([0.05, 0.01, 0.001]), k0=2,
                      tol_sigma=-math.inf, tol_r=-1.0)
    assert (always.stop_reason, always.j_star) == ("tolerance-breach", 3)


# ---------------------------------------------------------------------------
# full-universe active-set solve
# ---------------------------------------------------------------------------

def _dummy_result(n: int) -> MinRateResult:
    return MinRateResult(j_star=n, r=0.0, sigma_r=1.0,
                         weights=np.full(n, 1.0 / n), stop_reason="exhausted")


def test_full_universe_diagonal_matches_closed_form() -> None:
    diag = np.array([4.0, 1.0, 0.25, 2.0])
    out = compare_full_universe(_dummy_result(4), np.zeros(4), np.diag(diag))
    np.testing.assert_allclose(out.weights, min_variance_weights(diag),
                               atol=1e-10)
    assert out.sigma_r == pytest.approx(1.0 / math.sqrt(np.sum(1 / diag)),
                                        rel=1e-10)
    assert out.sweeps >= 1


def test_full_universe_two_asset_interior_solution() -> None:
    cov = np.array([[0.04, 0.01], [0.01, 0.09]])
    mu = np.array([0.02, 0.05])
    out = compare_full_universe(_dummy_result(2), mu, cov)
    w1 = (cov[1, 1] - cov[0, 1]) / (cov[0, 0] + cov[1, 1] - 2 * cov[0, 1])
    np.testing.assert_allclose(out.weights, [w1, 1.0 - w1], atol=1e-10)
    assert out.r == pytest.approx(w1 * 0.02 + (1 - w1) * 0.05, rel=1e-10)
    variance = float(out.weights @ cov @ out.weights)
    assert out.sigma_r == pytest.approx(math.sqrt(variance), rel=1e-12)


def test_full_universe_corner_solution_pins_to_vertex() -> None:
    # unconstrained optimum would short asset 2; the simplex answer is all-in
    cov = np.array([[0.01, 0.03], [0.03, 0.25]])
    out = compare_full_universe(_dummy_result(2), np.zeros(2), cov)
    np.testing.assert_allclose(out.weights, [1.0, 0.0], atol=1e-12)
    assert out.sigma_r == pytest.approx(0.1, rel=1e-12)


def test_full_universe_weights_stay_on_simplex() -> None:
    rng = np.random.default_rng(7)
    a = rng.standard_normal((12, 6))
    cov = a.T @ a / 12 + 1e-4 * np.eye(6)
    out = compare_full_universe(_dummy_result(6), np.zeros(6), cov)
    assert np.all(out.weights >= -1e-15)
    assert float(out.weights.sum()) == pytest.approx(1.0, abs=1e-12)
    # no feasible direction improves: compare against many random simplex points
    base = float(out.weights @ cov @ out.weights)
    for _ in range(200):
        w = rng.dirichlet(np.ones(6))
        assert float(w @ cov @ w) >= base - 1e-10


def test_full_universe_converges_on_long_only_null_portfolio(tmp_path,
                                                              capsys) -> None:
    # a + 2 (b - a)/2 + 2 (-b/2) = 0: the long-only portfolio (1, 2, 0, 2)/5
    # has zero variance, so the stationarity floor cannot rest on the
    # vanishing portfolio variance alone.
    rng = np.random.default_rng(0)
    a, b, c = 0.01 * rng.standard_normal((3, 300))
    x = np.column_stack([a, (b - a) / 2, c, -b / 2]) + 3e-4
    x0, means = center_columns(x)
    walk = min_rate(pca(x0, column_means=means), means, k0=2)
    cov = x0.T @ x0 / (x.shape[0] - 1)
    full = compare_full_universe(walk, means, cov)
    null = np.array([1.0, 2.0, 0.0, 2.0]) / 5.0
    assert float(np.abs(full.weights - null).max()) <= 1e-9
    assert full.sigma_r <= 1e-6 * math.sqrt(float(np.max(np.diag(cov))))
    assert full.sweeps < 100

    from shadowrate.cli import main
    returns = tmp_path / "returns.csv"
    write_return_panel(ReturnMatrix(tuple(range(300)), ("a", "b", "c", "d"),
                                    x), returns)
    assert main(["min-rate", "--returns", str(returns)]) == 0
    assert "full_r=" in capsys.readouterr().out


def test_full_universe_validation() -> None:
    with pytest.raises(ValueError, match="symmetric"):
        compare_full_universe(_dummy_result(2), np.zeros(2),
                              np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="shape"):
        compare_full_universe(_dummy_result(2), np.zeros(2), np.eye(3))
    with pytest.raises(ValueError, match="non-finite"):
        compare_full_universe(_dummy_result(2), np.zeros(2),
                              np.array([[1.0, 0.0], [0.0, math.nan]]))
    with pytest.raises(ValueError, match="more blocks"):
        compare_full_universe(_dummy_result(3), np.zeros(2), np.eye(2))


@settings(max_examples=120, deadline=None)
@given(n=st.integers(min_value=2, max_value=12),
       rows=st.integers(min_value=1, max_value=24),
       copies=st.integers(min_value=0, max_value=2),
       seed=st.integers(0, 2 ** 32 - 1))
# a weight freed with a multiplier near -2e-8, and one near -5e-7 beside a
# copied asset: a solve that stopped at either would fail the conditions
@example(n=8, rows=6, copies=0, seed=86)
@example(n=12, rows=10, copies=1, seed=29)
def test_full_universe_meets_its_kkt_conditions_and_the_descent(
        n, rows, copies, seed) -> None:
    # fewer rows than assets make the covariance rank-deficient, and a
    # copied asset makes the free set's KKT system singular
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, n)) * np.exp(rng.uniform(-2.0, 2.0, n))
    for j in range(min(copies, n - 1)):
        x[:, n - 1 - j] = x[:, j]
    cov = x.T @ x / rows
    w = compare_full_universe(_dummy_result(2), np.zeros(n), cov).weights
    scale = float(np.max(np.diag(cov)))
    tol = analysis.STATIONARITY_TOL * scale
    g = cov @ w
    support = w > 0.0
    assert float(w.sum()) == pytest.approx(1.0, abs=1e-15 * n)
    assert np.all(w >= 0.0)
    # equal gradients on the support, non-negative multipliers off it
    assert float(np.ptp(g[support])) <= tol
    assert float(np.min(g, initial=math.inf, where=~support)) >= \
        float(np.max(g[support])) - tol
    descent = oracles.simplex_descent(cov)
    assert float(w @ cov @ w) <= float(descent @ cov @ descent) + 1e-15 * scale


@pytest.mark.parametrize("copies", [1, 2])
def test_full_universe_with_a_duplicated_asset_matches_the_descent(
        copies) -> None:
    # the last assets copy the first: the split between the copies is not
    # unique, but the portfolio's mean and volatility are
    mu, sigma, s0 = cli._default_parameters(5)
    prices, _ = simulate_gbm(GbmSpec(mu=mu, sigma=sigma, s0=s0, steps=3000,
                                     seed=5))
    x = log_returns(prices).values.copy()
    x[:, 5 - copies:] = x[:, :1]
    x0, means = center_columns(x)
    cov = x0.T @ x0 / (x.shape[0] - 1)
    full = compare_full_universe(_dummy_result(2), means, cov)
    descent = oracles.simplex_descent(cov)
    assert full.r == pytest.approx(float(descent @ means), rel=1e-10)
    assert full.sigma_r == pytest.approx(
        math.sqrt(float(descent @ cov @ descent)), rel=1e-10)
    assert np.all(full.weights >= 0.0)


def test_walk_and_full_universe_agree_on_simulated_panel() -> None:
    spec = GbmSpec(mu=np.array([3e-4, 5e-4, 4e-4, 6e-4]),
                   sigma=0.01 * np.array([[1.2, 0.1, 0.05],
                                          [0.9, -0.3, 0.1],
                                          [1.5, 0.2, -0.2],
                                          [0.8, 0.4, 0.15]]),
                   s0=np.array([50.0, 60.0, 70.0, 80.0]),
                   steps=4000, seed=424242)
    prices, _ = simulate_gbm(spec)
    r = log_returns(prices)
    x0, means = center_columns(r.values)
    p = pca(x0, column_means=means)
    out = min_rate(p, means, k0=2, tol_r=1.0, tol_sigma=1.0)
    assert out.stop_reason == "exhausted"
    assert out.j_star == 4
    # the last composite is a near-riskless portfolio (rank-deficient market)
    assert out.sigma_r < 1e-8
    cov = x0.T @ x0 / (x0.shape[0] - 1)
    full = compare_full_universe(out, means, cov)
    # composite weights may short assets, so they lower-bound the long-only
    # variance; holding any single asset upper-bounds it
    assert full.sigma_r >= out.sigma_r
    assert full.sigma_r <= math.sqrt(min(np.diag(cov))) * (1.0 + 1e-12)
    assert np.all(full.weights >= 0.0)
