"""Acceptance gate: nine numbered criteria, each printed PASS/FAIL in the
terminal summary. Every criterion states its own tolerance and (where
applicable) runtime budget; nothing here is tuned per-machine."""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from shadowrate.analysis import compare_full_universe, min_rate, \
    min_variance_weights
from shadowrate.calibration import CalibratedModel
from shadowrate.market_data import ReturnMatrix
from shadowrate.pca import PcaResult, center_columns, pca
from shadowrate.pipeline import PipelineConfig, run_srr_series
from shadowrate.regularization import ClampState, clamp
from shadowrate.solver import (SingularMatrixError, build_phi, solve_svd,
                               svd_factors)
from shadowrate.synthetic import GbmSpec, simulate_gbm

from conftest import criterion
from oracles import solve_determinant, solve_lu, srr_two_asset

FIXTURES = Path(__file__).parent / "fixtures"


def test_criterion_1_two_asset_closed_form() -> None:
    with criterion(1, "two-asset closed form vs 3 solver routes"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for _ in range(200):
            s1 = rng.uniform(0.05, 0.5)
            s2 = s1 + rng.uniform(0.05, 0.4)  # keeps |s2 - s1| >= 0.05
            m1 = rng.uniform(0.005, 0.05)
            m2 = m1 * rng.uniform(0.2, 0.8)
            nu_c, sp_c = srr_two_asset(m1, m2, s1, s2)
            system = build_phi(np.array([[s1], [s2]]), np.array([m1, m2]))
            for solution in (solve_lu(system), solve_svd(system)):
                assert abs(solution.nu - nu_c) <= 1e-10 * abs(nu_c)
                assert abs(solution.sigma_pi[0] - sp_c) <= 1e-10 * abs(sp_c)
            assert abs(solve_determinant(system) - nu_c) <= 1e-10 * abs(nu_c)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_pricing_residual_bound() -> None:
    with criterion(2, "per-asset pricing residuals within condition budget"):
        rng = np.random.default_rng(202)
        checked = 0
        attempts = 0
        while checked < 100:
            attempts += 1
            assert attempts < 2000, "draw family too degenerate"
            n = int(rng.integers(2, 9))
            sigma = 0.2 * rng.standard_normal((n, n - 1))
            mu = 0.02 + 0.03 * rng.standard_normal(n)
            system = build_phi(sigma, mu)
            try:
                sol = solve_svd(system)
            except SingularMatrixError:
                continue
            if sol.kappa > 1e6:
                continue
            residual = np.abs(mu + (-sol.nu) + sigma @ sol.sigma_pi)
            bound = 1e-10 * sol.kappa * float(np.linalg.norm(mu))
            assert float(residual.max()) <= bound
            checked += 1


def test_criterion_3_pca_invariants() -> None:
    with criterion(3, "PCA orthonormality/ordering/cross-cov/reconstruction"):
        rng = np.random.default_rng(303)
        start = time.perf_counter()
        for _ in range(50):
            m = int(rng.integers(40, 501))
            n = int(rng.integers(2, 31))
            x = rng.standard_normal((m, n)) * rng.uniform(0.5, 1.5, n)
            x0, _ = center_columns(x)
            p = pca(x0)
            w, lam, scores = p.eigenvectors, p.eigenvalues, p.components

            gram = w.T @ w - np.eye(n)
            assert float(np.abs(gram).max()) <= 1e-10

            assert np.all(lam[:-1] >= lam[1:])
            assert lam[-1] >= 0.0

            cross = scores.T @ scores
            off = cross - np.diag(np.diag(cross))
            assert float(np.abs(off).max()) <= 1e-8 * m * float(lam[0])

            cov = x0.T @ x0 / (m - 1)
            recon = (w * lam) @ w.T
            assert float(np.abs(recon - cov).max()) <= 1e-10
        assert time.perf_counter() - start < 10.0


def test_criterion_4_synthetic_rate_recovery() -> None:
    with criterion(4, "five-asset recovery inside frozen bootstrap band"):
        fix = json.loads((FIXTURES / "recovery_band.json").read_text())
        start = time.perf_counter()
        spec = GbmSpec(mu=np.array(fix["mu"]), sigma=np.array(fix["sigma"]),
                       s0=np.array(fix["s0"]), steps=fix["steps"],
                       seed=fix["test_seed"])
        _, panel = simulate_gbm(spec)
        run = run_srr_series(panel, PipelineConfig(window_m=fix["window"]))
        assert len(run.rows) == fix["steps"] - fix["window"]
        target, band = fix["nu_true"], fix["band"]
        for row in run.rows:
            assert row.nu_raw is not None
            assert abs(row.nu_raw - target) <= band
        assert time.perf_counter() - start < 120.0


def test_criterion_5_clamp_properties_and_warm_start() -> None:
    with criterion(5, "clamp band exactness and bit-exact warm start"):
        eps = 0.005
        rng = np.random.default_rng(505)
        state = ClampState(epsilon=eps)
        value, state = clamp(state, 1.0)
        assert value == 1.0
        ulp_guard = eps + 4.0 * math.ulp(1.0)
        for _ in range(100_000):
            previous = state.previous
            if rng.random() < 0.8:
                raw = previous * (1.0 + rng.uniform(-eps, eps))
            else:
                sign = 1.0 if rng.random() < 0.5 else -1.0
                raw = previous * (1.0 + sign * rng.uniform(eps, 3.0 * eps))
            out, state = clamp(state, raw)
            lo = previous * (1.0 - eps)
            hi = previous * (1.0 + eps)
            assert lo <= out <= hi                       # band, exact edges
            assert min(raw, previous) <= out <= max(raw, previous)
            if lo <= raw <= hi:
                assert out == raw                        # pass-through
            assert out > 0.0                             # positivity
            assert abs(out / previous - 1.0) <= ulp_guard

        mu = np.array([4e-4, 6e-4, 5e-4, 3e-4, 7e-4])
        sigma = np.array([
            [0.012, 0.004, 0.002, 0.001],
            [0.018, -0.006, 0.003, 0.002],
            [0.009, 0.008, -0.004, 0.001],
            [0.015, 0.002, 0.005, -0.003],
            [0.021, -0.003, -0.002, 0.004],
        ])
        spec = GbmSpec(mu=mu, sigma=sigma,
                       s0=np.full(5, 100.0), steps=700, seed=515)
        _, panel = simulate_gbm(spec)
        cfg = PipelineConfig(window_m=600)
        whole = run_srr_series(panel, cfg)
        head = run_srr_series(panel, cfg, end_index=650)
        tail = run_srr_series(panel, cfg, start_index=651, states=head.states)
        assert head.rows + tail.rows == whole.rows
        for (da, va), (db, vb) in zip(
                head.singular_values + tail.singular_values,
                whole.singular_values):
            assert da == db
            assert np.array_equal(va, vb)


def test_criterion_6_column_sign_flip_invariance() -> None:
    with criterion(6, "loading-column sign flips leave outputs unchanged"):
        rng = np.random.default_rng(606)
        checked = 0
        attempts = 0
        while checked < 100:
            attempts += 1
            assert attempts < 3000, "draw family too degenerate"
            n = int(rng.integers(2, 9))
            sigma = 0.2 * rng.standard_normal((n, n - 1))
            mu = 0.02 + 0.03 * rng.standard_normal(n)
            try:
                base = solve_svd(build_phi(sigma, mu))
            except SingularMatrixError:
                continue
            if base.kappa > 1e3:
                continue
            k = int(rng.integers(0, n - 1))
            flipped = sigma.copy()
            flipped[:, k] = -flipped[:, k]
            alt = solve_svd(build_phi(flipped, mu))

            assert abs(alt.nu - base.nu) <= 1e-12 * max(1.0, abs(base.nu))
            assert abs(alt.sigma_pi_total - base.sigma_pi_total) \
                <= 1e-12 * max(1.0, base.sigma_pi_total)
            assert abs(alt.kappa - base.kappa) <= 1e-12 * base.kappa
            d_base = svd_factors(build_phi(sigma, mu).phi).d
            d_alt = svd_factors(build_phi(flipped, mu).phi).d
            assert float(np.abs(d_alt - d_base).max()) <= 1e-12 * d_base[0]
            checked += 1


def test_criterion_7_spike_suppression() -> None:
    with criterion(7, "conditioning spike tamed by the clamped spectrum"):
        sigma0 = np.array([
            [0.10, 0.06, 0.050],
            [0.16, -0.05, -0.020],
            [0.07, 0.08, -0.060],
            [0.12, -0.04, 0.040],
        ])
        # rank-2 target: replace the third column by its projection onto the
        # first two, so one factor direction dies radially over the spike
        ab, *_ = np.linalg.lstsq(sigma0[:, :2], sigma0[:, 2], rcond=None)
        degenerate = sigma0.copy()
        degenerate[:, 2] = sigma0[:, :2] @ ab
        dying = np.array([ab[0], ab[1], -1.0])
        # true deflator loadings orthogonal to the dying coefficient
        # direction: the vanishing factor carries no premium, so the true
        # rate stays fixed while the system degenerates
        seed_loadings = np.array([0.05, -0.03, 0.02])
        sig_star = seed_loadings \
            - (seed_loadings @ dying) / (dying @ dying) * dying
        nu_star = 5e-4
        window, pre_end, spike_len, alpha_max = 8, 46, 20, 0.98

        def scripted(w: ReturnMatrix) -> CalibratedModel:
            t = w.dates[-1]
            a = 0.0 if t <= pre_end \
                else alpha_max * min(t - pre_end, spike_len) / spike_len
            s = sigma0 + a * (degenerate - sigma0)
            jitter = 1e-6 * np.sin(0.7 * t + np.arange(4))
            return CalibratedModel(mu=nu_star - s @ sig_star + jitter,
                                   sigma=s, method="direct",
                                   window_end_date=t)

        panel = ReturnMatrix(tuple(range(67)), ("A1", "A2", "A3", "A4"),
                             np.full((67, 4), 1e-4))
        cfg = PipelineConfig(window_m=window)
        rows = run_srr_series(panel, cfg, calibrator=scripted).rows
        pre = [r for r in rows if r.date <= pre_end]
        spike = [r for r in rows if r.date > pre_end]
        assert len(pre) == 40 and len(spike) == spike_len
        assert all(r.nu_raw is not None for r in rows)

        kappa_pre = float(np.median([r.kappa_raw for r in pre]))
        assert max(r.kappa_raw for r in spike) >= 10.0 * kappa_pre

        guard = 1.0 + 1e-9
        for a, b in zip(rows, rows[1:]):
            assert abs(b.d_min_eps / a.d_min_eps - 1.0) <= cfg.epsilon * guard

        q25, q50, q75 = np.quantile([r.nu_eps for r in pre],
                                    [0.25, 0.5, 0.75])
        iqr = q75 - q25
        assert iqr > 0.0
        assert all(abs(r.nu_eps - q50) <= 5.0 * iqr for r in rows)


def test_criterion_8_min_rate_closed_form() -> None:
    with criterion(8, "composite walk matches 1/lambda closed forms"):
        q = min_variance_weights(np.array([4.0, 1.0]))
        assert float(np.abs(q - np.array([0.2, 0.8])).max()) <= 1e-12

        lam = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        p = PcaResult(lam, np.eye(5), np.zeros((6, 5)), np.zeros(5))
        out = min_rate(p, np.zeros(5), k0=2, tol_r=1.0, tol_sigma=1.0)
        assert out.stop_reason == "exhausted"
        sigmas = [1.0 / math.sqrt(np.sum(1.0 / lam[:j]))
                  for j in range(2, 6)]
        assert all(b <= a for a, b in zip(sigmas, sigmas[1:]))
        assert out.sigma_r == pytest.approx(sigmas[-1], rel=1e-12)

        diag = np.array([4.0, 1.0, 0.25, 2.0])
        p4 = PcaResult(diag, np.eye(4), np.zeros((6, 4)), np.zeros(4))
        walk = min_rate(p4, np.zeros(4), k0=2, tol_r=1.0, tol_sigma=1.0)
        full = compare_full_universe(walk, np.zeros(4), np.diag(diag))
        assert float(np.abs(full.weights
                            - min_variance_weights(diag)).max()) <= 1e-8
        assert abs(full.sigma_r - walk.sigma_r) <= 1e-8


def test_criterion_9_default_parameters_in_manifest(tmp_path) -> None:
    with criterion(9, "no-flag run uses published defaults"):
        from shadowrate.cli import main

        prices = tmp_path / "prices.csv"
        assert main(["simulate", "--n", "2", "--steps", "2600",
                     "--seed", "4242", "--out", str(prices)]) == 0
        out = tmp_path / "rates.csv"
        assert main(["srr", "--prices", str(prices), "--out", str(out)]) == 0

        manifest = json.loads((tmp_path / "rates.manifest.json").read_text())
        assert manifest["config"]["window_m"] == 2500
        assert manifest["config"]["epsilon"] == 0.005
        assert manifest["config"]["delta_nu"] == 1e-5
        assert manifest["config"]["delta_sigma"] == 1e-3
        assert manifest["config"]["method"] == "direct"
        assert manifest["config"]["svd_mode"] == "min-only"
        assert len(out.read_text().splitlines()) == 1 + (2599 - 2500 + 1)
