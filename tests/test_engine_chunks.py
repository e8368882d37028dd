"""The chunked engine against the per-window reference loop in ``oracles``:
rows and spectra agree bit for bit however the dates fall into chunks, on
degenerate panels too, and the stacked helpers give the bits of the plain
arithmetic of one system."""

from __future__ import annotations

import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from shadowrate import pipeline
from shadowrate.calibration import METHODS, sigma_direct
from shadowrate.market_data import ReturnMatrix
from shadowrate.pipeline import (PipelineConfig, RegularizerStates,
                                 run_srr_series)
from shadowrate.solver import build_phi, solve_svd, svd_factors

from oracles import oracle_srr_series


def _panel(values: np.ndarray) -> ReturnMatrix:
    m, n = values.shape
    return ReturnMatrix(tuple(range(m)), tuple(f"A{j}" for j in range(n)),
                        values)


def _noisy(rows: int, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return 2e-4 + 0.01 * rng.standard_normal((rows, n))


def _bits(run) -> tuple[list, list]:
    # float.hex tells -0.0 from 0.0, which == does not
    rows = [tuple(v.hex() if isinstance(v, float) else v
                  for v in vars(row).values()) for row in run.rows]
    return rows, [(label, d.tobytes()) for label, d in run.singular_values]


def _engine(*args, **kwargs):
    """``run_srr_series`` with every RuntimeWarning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return run_srr_series(*args, **kwargs)


def _dates_per_chunk(monkeypatch, n: int, dates: int | None) -> list[int]:
    """Set the chunk budget to ``dates`` dates at ``n`` assets (None keeps
    the module's budget) and record the size of every chunk run."""
    if dates is not None:
        monkeypatch.setattr(pipeline, "CHUNK_BYTES", dates * 64 * n * n)
    sizes: list[int] = []
    stage = pipeline.factor_and_solve

    def counted(phi, mu):
        sizes.append(len(phi))
        return stage(phi, mu)

    monkeypatch.setattr(pipeline, "factor_and_solve", counted)
    return sizes


# Singular start: the 4th asset repeats the 1st for 100 rows, so the windows
# ending at rows 59..99 are singular and the spectrum clamp seeds near zero.
# A wide spectrum band lets the clamped spectrum recover within the panel,
# so the rate clamp steps only on the later dates.
START_VALUES = _noisy(200, 4, seed=41)
START_VALUES[:100, 3] = START_VALUES[:100, 0]
START_PANEL = _panel(START_VALUES)
START_CFG = PipelineConfig(window_m=60, epsilon=0.2)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("dates", [1, 2, 7])
def test_chunk_boundaries_match_reference(monkeypatch, method, dates) -> None:
    cfg = replace(START_CFG, method=method)
    sizes = _dates_per_chunk(monkeypatch, 4, dates)
    run = _engine(START_PANEL, cfg)
    per_chunk = 1 if method == "regression" else dates
    assert sizes == [per_chunk] * (141 // per_chunk) + \
        ([141 % per_chunk] if 141 % per_chunk else [])
    # the singular start covers several chunks; blank and clamped rates
    # both follow it
    assert sum(row.nu_raw is None for row in run.rows) > 2 * per_chunk
    assert any(row.nu_hat is None and row.nu_raw is not None
               for row in run.rows)
    assert any(row.nu_hat != row.nu_eps for row in run.rows[-20:])
    assert _bits(run) == _bits(oracle_srr_series(START_PANEL, cfg))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("dates", [2, 7])
def test_warm_start_inside_a_chunk_matches_reference(monkeypatch, method,
                                                     dates) -> None:
    # The whole run's chunks start at rows 59 + j * dates; row 69 ends
    # none of them, so the head stops inside a chunk.
    cfg = replace(START_CFG, method=method)
    _dates_per_chunk(monkeypatch, 4, dates)
    head = _engine(START_PANEL, cfg, end_index=69)
    middle = _engine(START_PANEL, cfg, start_index=70, end_index=70,
                     states=head.states)
    tail = _engine(START_PANEL, cfg, start_index=71, states=middle.states)
    joined = SimpleNamespace(
        rows=head.rows + middle.rows + tail.rows,
        singular_values=(head.singular_values + middle.singular_values
                         + tail.singular_values))
    assert _bits(joined) == _bits(oracle_srr_series(START_PANEL, cfg))


def test_module_chunk_budget_crosses_a_boundary(monkeypatch) -> None:
    # 641 dates at N=4: more than one chunk of the module's own budget
    panel = _panel(_noisy(700, 4, seed=42))
    cfg = PipelineConfig(window_m=60)
    sizes = _dates_per_chunk(monkeypatch, 4, None)
    run = _engine(panel, cfg)
    assert len(sizes) > 1 and sum(sizes) == 641
    assert _bits(run) == _bits(oracle_srr_series(panel, cfg))


def _constant_asset() -> tuple[np.ndarray, int]:
    values = _noisy(60, 4, seed=43)
    values[:, 2] = 3e-4
    return values, 30


def _duplicated_asset() -> tuple[np.ndarray, int]:
    values = _noisy(60, 4, seed=44)
    values[:, 3] = values[:, 0]
    return values, 30


def _shortest_window() -> tuple[np.ndarray, int]:
    return _noisy(40, 4, seed=45), 5


def _all_zero() -> tuple[np.ndarray, int]:
    return np.zeros((40, 4)), 20


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("make", [_constant_asset, _duplicated_asset,
                                  _shortest_window, _all_zero])
def test_degenerate_panels_match_reference(method, make) -> None:
    values, window_m = make()
    panel = _panel(values)
    cfg = PipelineConfig(window_m=window_m, method=method)
    run = _engine(panel, cfg)
    assert _bits(run) == _bits(oracle_srr_series(panel, cfg))
    for row in run.rows:
        for value in vars(row).values():
            assert value is None or not isinstance(value, float) \
                or not math.isnan(value)


@pytest.mark.parametrize("field, value", [("d_levels", math.nan),
                                          ("nu_level", math.inf),
                                          ("sigma_levels", -math.inf)])
def test_non_finite_carried_level_is_rejected(field, value) -> None:
    panel = _panel(_noisy(80, 4, seed=46))
    cfg = PipelineConfig(window_m=60)
    states = run_srr_series(panel, cfg, end_index=70).states
    if field == "nu_level":
        bad = RegularizerStates(states.d_levels, value, states.sigma_levels)
    else:
        levels = getattr(states, field).copy()
        levels[-1] = value
        bad = RegularizerStates(**{**vars(states), field: levels})
    with pytest.raises(ValueError, match="previous level must be finite"):
        run_srr_series(panel, cfg, start_index=71, states=bad)


def test_stacked_solve_keeps_the_one_date_bits() -> None:
    # solve_svd runs the engine's stacked helpers on one system; the
    # reference is the plain arithmetic of one system.
    rng = np.random.default_rng(47)
    for _ in range(200):
        n = int(rng.integers(2, 41))
        system = build_phi(0.02 * rng.standard_normal((n, n - 1)),
                           1e-3 * rng.standard_normal(n))
        f = svd_factors(system.phi)
        u, d, vh = np.linalg.svd(system.phi)
        assert f.u.tobytes() == u.tobytes()
        assert f.v.tobytes() == vh.T.tobytes()
        x = vh.T @ ((u.T @ system.mu) / d)
        got = solve_svd(system, factors=f)
        assert got.nu.hex() == float(x[0]).hex()
        assert got.sigma_pi.tobytes() == x[1:].tobytes()
        assert got.sigma_pi_total.hex() == \
            float(np.linalg.norm(x[1:])).hex()
        assert got.residual_norm.hex() == \
            float(np.linalg.norm(system.phi @ x - system.mu)).hex()


def test_stacked_loadings_keep_the_one_date_bits() -> None:
    rng = np.random.default_rng(48)
    lam = np.sort(np.abs(rng.standard_normal((6, 5))), axis=1)[:, ::-1]
    w = rng.standard_normal((6, 5, 5))
    stacked = sigma_direct(lam, w)
    for j in range(6):
        one = w[j][:, :4] * np.sqrt(lam[j][:4])
        assert stacked[j].tobytes() == one.tobytes()
        assert sigma_direct(lam[j], w[j]).tobytes() == one.tobytes()
