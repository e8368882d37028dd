"""Solver tests: assembly, the SVD route against the independent routes in
``oracles``, closed forms, and diagnostics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from shadowrate.solver import (PhiSystem, SingularMatrixError, build_phi,
                               solve_svd, svd_factors)

from oracles import (condition_number, solve_determinant, solve_lu,
                     srr_two_asset)


def _two_asset_system() -> PhiSystem:
    return build_phi(np.array([[0.1], [0.3]]), np.array([0.01, 0.02]))


def test_build_phi_layout() -> None:
    system = _two_asset_system()
    np.testing.assert_array_equal(system.phi,
                                  np.array([[1.0, -0.1], [1.0, -0.3]]))
    np.testing.assert_array_equal(system.mu, np.array([0.01, 0.02]))


def test_build_phi_validation() -> None:
    with pytest.raises(ValueError):
        build_phi(np.zeros((3, 1)), np.zeros(3))
    with pytest.raises(ValueError):
        build_phi(np.zeros((2, 1)), np.zeros(3))
    with pytest.raises(ValueError):
        build_phi(np.array([[np.nan], [0.1]]), np.zeros(2))


def test_hand_oracle_all_routes() -> None:
    # Elimination by hand: subtracting the two equations gives
    # 0.2 * s = -0.01 so s = -0.05, then nu = 0.01 + 0.1 * s = 0.005.
    system = _two_asset_system()
    for solution in (solve_lu(system), solve_svd(system)):
        assert solution.nu == pytest.approx(0.005, abs=1e-15)
        assert solution.sigma_pi[0] == pytest.approx(-0.05, abs=1e-13)
        assert solution.residual_norm <= 1e-15
    assert solve_determinant(system) == pytest.approx(0.005, abs=1e-15)


def test_two_asset_closed_form() -> None:
    nu, sigma_pi = srr_two_asset(0.01, 0.02, 0.1, 0.3)
    assert nu == pytest.approx(0.005, abs=1e-18)
    assert sigma_pi == pytest.approx(-0.05, abs=1e-18)
    with pytest.raises(SingularMatrixError):
        srr_two_asset(0.01, 0.02, 0.2, 0.2)


def test_market_price_of_risk_identity() -> None:
    mu1, mu2, s1, s2 = 0.012, 0.019, 0.08, 0.31
    nu, sigma_pi = srr_two_asset(mu1, mu2, s1, s2)
    assert (mu1 - nu) / s1 == pytest.approx(-sigma_pi, abs=1e-12)
    assert (mu2 - nu) / s2 == pytest.approx(-sigma_pi, abs=1e-12)


def test_pricing_residuals_vanish_at_solution() -> None:
    rng = np.random.default_rng(0)
    sigma = 0.2 * rng.standard_normal((5, 4))
    mu = 0.01 * rng.standard_normal(5)
    system = build_phi(sigma, mu)
    solution = solve_lu(system)
    x = np.concatenate([[solution.nu], solution.sigma_pi])
    residuals = system.phi @ x - system.mu
    assert np.max(np.abs(residuals)) <= 1e-12


def test_lu_and_svd_agree() -> None:
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        sigma = 0.3 * rng.standard_normal((n, n - 1))
        mu = 0.02 * rng.standard_normal(n)
        system = build_phi(sigma, mu)
        if condition_number(system.phi) > 1e8:
            continue
        a, b = solve_lu(system), solve_svd(system)
        assert a.nu == pytest.approx(b.nu, rel=1e-10, abs=1e-12)
        np.testing.assert_allclose(a.sigma_pi, b.sigma_pi, rtol=1e-8,
                                   atol=1e-12)


def test_identical_rows_raise_with_pivot_index() -> None:
    sigma = np.array([[0.1, 0.2], [0.1, 0.2], [0.3, 0.1]])
    system = build_phi(sigma, np.array([0.01, 0.02, 0.03]))
    with pytest.raises(SingularMatrixError) as info:
        solve_lu(system)
    assert isinstance(info.value.pivot_index, int)
    with pytest.raises(SingularMatrixError):
        solve_svd(system)
    with pytest.raises(SingularMatrixError):
        solve_determinant(system)


def test_svd_factors_reconstruct() -> None:
    rng = np.random.default_rng(2)
    phi = rng.standard_normal((6, 6))
    f = svd_factors(phi)
    rebuilt = f.u @ np.diag(f.d) @ f.v.T
    assert np.max(np.abs(rebuilt - phi)) <= 1e-10 * f.d[0]
    assert np.all(f.d[:-1] >= f.d[1:]) and np.all(f.d >= 0.0)


def test_d_override_never_amplifies_along_smallest_direction() -> None:
    rng = np.random.default_rng(3)
    for _ in range(20):
        sigma = 0.3 * rng.standard_normal((4, 3))
        mu = 0.02 * rng.standard_normal(4)
        system = build_phi(sigma, mu)
        f = svd_factors(system.phi)
        raw = solve_svd(system, factors=f)
        doubled = f.d.copy()
        doubled[-1] *= 2.0
        overridden = solve_svd(system, d_override=doubled, factors=f)
        x_raw = np.concatenate([[raw.nu], raw.sigma_pi])
        x_new = np.concatenate([[overridden.nu], overridden.sigma_pi])
        assert np.linalg.norm(x_new) <= np.linalg.norm(x_raw) + 1e-15


def test_override_residual_is_against_original_matrix() -> None:
    system = _two_asset_system()
    f = svd_factors(system.phi)
    bumped = f.d * np.array([1.0, 2.0])
    solution = solve_svd(system, d_override=bumped, factors=f)
    x = np.concatenate([[solution.nu], solution.sigma_pi])
    expected = float(np.linalg.norm(system.phi @ x - system.mu))
    assert solution.residual_norm == pytest.approx(expected, rel=1e-12)
    assert solution.residual_norm > 1e-6  # the distortion is visible
    assert solution.kappa == pytest.approx(float(np.max(bumped) / np.min(bumped)))


def test_condition_number_values() -> None:
    assert condition_number(np.eye(3)) == pytest.approx(1.0, abs=1e-14)
    assert condition_number(np.diag([10.0, 0.1])) == pytest.approx(100.0,
                                                                   rel=1e-12)
    assert condition_number(np.diag([1.0, 0.0])) == math.inf
    assert condition_number(np.ones((2, 2))) >= 1e15


def test_override_shape_mismatch() -> None:
    system = _two_asset_system()
    with pytest.raises(ValueError, match="shape"):
        solve_svd(system, d_override=np.array([1.0, 1.0, 1.0]))
