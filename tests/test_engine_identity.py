"""The engine against the per-window reference loop in ``oracles``: rows and
spectra must agree bit for bit, not merely to a tolerance."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from shadowrate.calibration import CalibratedModel
from shadowrate.market_data import ReturnMatrix
from shadowrate.pipeline import PipelineConfig, SrrSeriesRow, run_srr_series
from shadowrate.synthetic import GbmSpec, simulate_gbm

from oracles import oracle_srr_series

MU = np.array([4e-4, 6e-4, 5e-4, 3e-4, 7e-4])
SIGMA = np.array([
    [0.012, 0.004, 0.002, 0.001],
    [0.018, -0.006, 0.003, 0.002],
    [0.009, 0.008, -0.004, 0.001],
    [0.015, 0.002, 0.005, -0.003],
    [0.021, -0.003, -0.002, 0.004],
])


def _gbm_panel(steps: int, seed: int) -> ReturnMatrix:
    spec = GbmSpec(mu=MU, sigma=SIGMA, s0=np.full(5, 100.0), steps=steps,
                   seed=seed)
    return simulate_gbm(spec)[1]


def _noisy_panel(rows: int, n: int, seed: int) -> ReturnMatrix:
    rng = np.random.default_rng(seed)
    values = 2e-4 + 0.01 * rng.standard_normal((rows, n))
    return ReturnMatrix(tuple(range(rows)), tuple(f"A{j}" for j in range(n)),
                        values)


def _bits(rows: list[SrrSeriesRow]) -> list[tuple]:
    # float.hex tells -0.0 from 0.0, which == does not
    return [tuple(v.hex() if isinstance(v, float) else v
                  for v in vars(row).values()) for row in rows]


def _assert_identical(run, oracle) -> None:
    assert len(run.rows) == len(oracle.rows)
    assert run.rows == oracle.rows
    assert _bits(run.rows) == _bits(oracle.rows)
    assert len(run.singular_values) == len(oracle.singular_values)
    for (da, va), (db, vb) in zip(run.singular_values,
                                  oracle.singular_values):
        assert da == db
        assert np.array_equal(va, vb)
        assert va.tobytes() == vb.tobytes()


def test_direct_min_only_matches_reference() -> None:
    panel = _gbm_panel(steps=760, seed=31)
    cfg = PipelineConfig(window_m=600)
    assert cfg.resolved_svd_mode() == "min-only"
    _assert_identical(run_srr_series(panel, cfg),
                      oracle_srr_series(panel, cfg))


def test_regression_all_matches_reference() -> None:
    panel = _noisy_panel(rows=420, n=5, seed=32)
    cfg = PipelineConfig(window_m=250, method="regression")
    assert cfg.resolved_svd_mode() == "all"
    run = run_srr_series(panel, cfg)
    _assert_identical(run, oracle_srr_series(panel, cfg))
    # the clamp acted on more than the smallest singular value
    assert any(row.kappa_eps != row.kappa_raw for row in run.rows)


def test_duplicated_column_singular_start_matches_reference() -> None:
    # The 4th asset repeats the 1st for 120 rows, so the first windows are
    # singular and the spectrum clamp seeds near zero.
    panel = _noisy_panel(rows=320, n=4, seed=33)
    values = panel.values.copy()
    values[:120, 3] = values[:120, 0]
    panel = ReturnMatrix(panel.dates, panel.asset_ids, values)
    cfg = PipelineConfig(window_m=100)
    run = run_srr_series(panel, cfg)
    assert any(row.nu_raw is None for row in run.rows)
    assert any(row.nu_hat is None and row.nu_raw is not None
               for row in run.rows)
    _assert_identical(run, oracle_srr_series(panel, cfg))


@pytest.mark.parametrize("method", ["direct", "regression"])
def test_split_warm_start_matches_reference(method) -> None:
    panel = _gbm_panel(steps=700, seed=34)
    cfg = PipelineConfig(window_m=600, method=method)
    head = run_srr_series(panel, cfg, end_index=640)
    middle = run_srr_series(panel, cfg, start_index=641, end_index=641,
                            states=head.states)
    tail = run_srr_series(panel, cfg, start_index=642, states=middle.states)

    joined = SimpleNamespace(
        rows=head.rows + middle.rows + tail.rows,
        singular_values=(head.singular_values + middle.singular_values
                         + tail.singular_values))
    _assert_identical(joined, oracle_srr_series(panel, cfg))


def test_fortran_ordered_panel_matches_reference() -> None:
    c_panel = _gbm_panel(steps=700, seed=35)
    f_values = np.asfortranarray(c_panel.values)
    assert not f_values.flags.c_contiguous
    panel = ReturnMatrix(c_panel.dates, c_panel.asset_ids, f_values)
    assert panel.values.flags.f_contiguous
    cfg = PipelineConfig(window_m=600)
    run = run_srr_series(panel, cfg)
    _assert_identical(run, oracle_srr_series(panel, cfg))
    _assert_identical(run, run_srr_series(c_panel, cfg))


def test_calibrator_hook_matches_reference() -> None:
    healthy = np.array([[0.1, 0.02], [0.2, -0.05], [0.15, 0.08]])
    singular = np.array([[0.1, 0.02], [0.1, 0.02], [0.15, 0.08]])

    def scripted(w: ReturnMatrix) -> CalibratedModel:
        end = w.dates[-1]
        mu = np.array([0.01, 0.015, 0.02]) + 1e-4 * w.values[-1]
        sigma = singular if end in (10, 11) else healthy * (1.0 + 0.01 * end)
        return CalibratedModel(mu=mu, sigma=sigma, method="direct",
                               window_end_date=end)

    panel = _noisy_panel(rows=30, n=3, seed=36)
    for mode in ("min-only", "all"):
        cfg = PipelineConfig(window_m=5, svd_mode=mode)
        run = run_srr_series(panel, cfg, calibrator=scripted)
        assert any(row.nu_raw is None for row in run.rows)
        _assert_identical(run, oracle_srr_series(panel, cfg,
                                                 calibrator=scripted))
