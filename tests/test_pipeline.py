"""Moving-window pipeline tests: exactness, band behavior, degeneracy, IO."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowrate import market_data, pipeline
from shadowrate.calibration import METHODS, CalibratedModel
from shadowrate.market_data import DataError, ReturnMatrix
from shadowrate.pipeline import (ROW_FIELDS, PipelineConfig, SrrRun,
                                 run_srr_series, write_rows_csv,
                                 write_singular_csv)
from shadowrate.regularization import MODES
from shadowrate.synthetic import GbmSpec, simulate_gbm

from helpers import read_rows_csv
from oracles import ScalarClampState, oracle_srr_series, srr_two_asset

FIVE_ASSET_MU = np.array([4e-4, 6e-4, 5e-4, 3e-4, 7e-4])
FIVE_ASSET_SIGMA = np.array([
    [0.012, 0.004, 0.002, 0.001],
    [0.018, -0.006, 0.003, 0.002],
    [0.009, 0.008, -0.004, 0.001],
    [0.015, 0.002, 0.005, -0.003],
    [0.021, -0.003, -0.002, 0.004],
])
FIVE_ASSET_S0 = np.array([100.0, 80.0, 120.0, 60.0, 90.0])


def _panel(values: np.ndarray) -> ReturnMatrix:
    m, n = values.shape
    return ReturnMatrix(tuple(range(m)), tuple(f"A{j}" for j in range(n)),
                        values)


def _gbm_panel(steps: int, seed: int) -> ReturnMatrix:
    spec = GbmSpec(mu=FIVE_ASSET_MU, sigma=FIVE_ASSET_SIGMA,
                   s0=FIVE_ASSET_S0, steps=steps, seed=seed)
    return simulate_gbm(spec)[1]


def test_config_defaults_and_validation() -> None:
    cfg = PipelineConfig()
    assert cfg.window_m == 2500
    assert cfg.method == "direct"
    assert cfg.epsilon == 0.005
    assert cfg.delta_nu == 1e-5
    assert cfg.delta_sigma == 1e-3
    assert cfg.resolved_svd_mode() == "min-only"
    assert PipelineConfig(method="regression").resolved_svd_mode() == "all"
    assert PipelineConfig(method="regression",
                          svd_mode="min-only").resolved_svd_mode() == "min-only"
    with pytest.raises(ValueError):
        PipelineConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        PipelineConfig(delta_nu=-1e-5)
    with pytest.raises(ValueError):
        PipelineConfig(method="other")
    with pytest.raises(ValueError):
        PipelineConfig(svd_mode="some")


def test_insufficient_history_and_window_too_small() -> None:
    rng = np.random.default_rng(0)
    panel = _panel(0.01 * rng.standard_normal((30, 3)))
    with pytest.raises(DataError, match="insufficient history"):
        run_srr_series(panel, PipelineConfig(window_m=50))
    with pytest.raises(ValueError, match="exceed"):
        run_srr_series(panel, PipelineConfig(window_m=3))


def test_replayed_noise_block_gives_identical_rows() -> None:
    # A period-5 noise block tiled through the panel: every 10-row window
    # holds exactly two copies of the block, so each date sees the same
    # empirical moments (row order aside) and every output row repeats.
    rng = np.random.default_rng(12)
    block = 0.01 * rng.standard_normal((5, 2)) @ rng.standard_normal((2, 3)) \
        + np.array([2e-4, 5e-4, 3e-4])
    panel = _panel(np.tile(block, (6, 1)))
    cfg = PipelineConfig(window_m=10)
    run = run_srr_series(panel, cfg)
    assert len(run.rows) == 21
    first = run.rows[0]
    assert first.nu_raw is not None
    for row in run.rows:
        assert row.nu_raw == pytest.approx(first.nu_raw, abs=1e-12)
        assert row.sigma_pi_raw == pytest.approx(first.sigma_pi_raw,
                                                 abs=1e-12)
        assert row.kappa_raw == pytest.approx(first.kappa_raw, rel=1e-9)
        # the clamp never engages on a flat series
        assert row.nu_hat == row.nu_raw
        assert row.nu_eps == row.nu_raw


def test_exact_parameter_bypass_matches_closed_form() -> None:
    mu = np.array([0.01, 0.02])
    sigma = np.array([[0.1], [0.3]])
    nu_expected, sigma_pi_expected = srr_two_asset(0.01, 0.02, 0.1, 0.3)

    def exact(w: ReturnMatrix) -> CalibratedModel:
        return CalibratedModel(mu=mu, sigma=sigma, method="direct",
                               window_end_date=w.dates[-1])

    panel = _panel(np.zeros((20, 2)) + 0.01)
    run = run_srr_series(panel, PipelineConfig(window_m=3), calibrator=exact)
    assert len(run.rows) == 18
    for row in run.rows:
        assert row.nu_raw == pytest.approx(nu_expected, abs=1e-12)
        assert row.sigma_pi_raw == pytest.approx(abs(sigma_pi_expected),
                                                 abs=1e-12)
        assert row.residual_norm <= 1e-14


def test_gbm_3000_steps_window_2500_bands() -> None:
    panel = _gbm_panel(steps=3000, seed=2718)
    cfg = PipelineConfig()
    run = run_srr_series(panel, cfg)
    assert len(run.rows) == 500  # 2999 return rows - 2500 + 1

    dates = [row.date for row in run.rows]
    assert dates == sorted(dates)
    guard = 1.0 + 1e-9
    for prev, cur in zip(run.rows, run.rows[1:]):
        assert cur.kappa_raw >= 1.0 and cur.kappa_eps >= 1.0
        assert cur.d_min_raw > 0.0 and cur.d_min_eps > 0.0
        assert cur.sigma_pi_raw is not None and cur.sigma_pi_raw >= 0.0
        if prev.nu_hat != 0.0:
            assert abs(cur.nu_hat / prev.nu_hat - 1.0) <= cfg.delta_nu * guard
        assert abs(cur.d_min_eps / prev.d_min_eps - 1.0) <= cfg.epsilon * guard


def test_benign_panel_keeps_raw_and_regularized_equal() -> None:
    panel = _gbm_panel(steps=1200, seed=1618)
    cfg = PipelineConfig(window_m=1000)
    run = run_srr_series(panel, cfg)
    assert len(run.rows) == 200
    # premise: the smallest singular value never leaves the band
    d_min = [row.d_min_raw for row in run.rows]
    drift = max(abs(b / a - 1.0) for a, b in zip(d_min, d_min[1:]))
    assert drift < cfg.epsilon
    for row in run.rows:
        assert row.nu_eps == row.nu_raw
        assert row.d_min_eps == row.d_min_raw


def test_scripted_singular_date_marks_raw_fields() -> None:
    healthy_sigma = np.array([[0.1, 0.02], [0.2, -0.05], [0.15, 0.08]])
    singular_sigma = np.array([[0.1, 0.02], [0.1, 0.02], [0.15, 0.08]])
    mu = np.array([0.01, 0.015, 0.02])

    def scripted(w: ReturnMatrix) -> CalibratedModel:
        end = w.dates[-1]
        sigma = singular_sigma if end == 10 else healthy_sigma
        return CalibratedModel(mu=mu, sigma=sigma, method="direct",
                               window_end_date=end)

    panel = _panel(np.full((16, 3), 0.01))
    run = run_srr_series(panel, PipelineConfig(window_m=5),
                         calibrator=scripted)
    by_date = {row.date: row for row in run.rows}
    bad = by_date[10]
    assert bad.nu_raw is None and bad.sigma_pi_raw is None
    assert bad.kappa_raw > 1e14
    # the clamped spectrum keeps the regularized solve alive
    assert bad.nu_eps is not None and bad.nu_hat is not None
    assert bad.d_min_eps > 0.0
    good = by_date[9]
    assert good.nu_raw is not None
    after = by_date[11]
    assert after.nu_raw is not None


def test_warm_start_split_is_bit_exact() -> None:
    panel = _gbm_panel(steps=700, seed=99)
    cfg = PipelineConfig(window_m=600)
    whole = run_srr_series(panel, cfg)
    split = 650
    head = run_srr_series(panel, cfg, end_index=split)
    tail = run_srr_series(panel, cfg, start_index=split + 1,
                          states=head.states)
    rows = head.rows + tail.rows
    assert len(rows) == len(whole.rows)
    for a, b in zip(rows, whole.rows):
        assert a == b
    for (da, va), (db, vb) in zip(head.singular_values + tail.singular_values,
                                  whole.singular_values):
        assert da == db
        np.testing.assert_array_equal(va, vb)


def _noisy_panel(rows: int, n: int, seed: int) -> ReturnMatrix:
    rng = np.random.default_rng(seed)
    return _panel(2e-4 + 0.01 * rng.standard_normal((rows, n)))


def _bits(run) -> tuple[list, list]:
    """Rows and spectra of a run, bit for bit (float.hex tells -0.0 from 0.0,
    which == does not)."""
    rows = [tuple(v.hex() if isinstance(v, float) else v
                  for v in vars(row).values()) for row in run.rows]
    return rows, [(label, d.tobytes()) for label, d in run.singular_values]


def _level_bits(states) -> tuple:
    return (states.d_levels.tobytes(), float(states.nu_level).hex(),
            states.sigma_levels.tobytes())


SPLIT_PANEL = _noisy_panel(rows=110, n=4, seed=7)
SPLIT_WINDOW = 60


@lru_cache(maxsize=None)
def _whole_run(method: str, svd_mode: str) -> SrrRun:
    cfg = PipelineConfig(window_m=SPLIT_WINDOW, method=method,
                         svd_mode=svd_mode)
    run = run_srr_series(SPLIT_PANEL, cfg)
    # every clamp acts somewhere, so a lost level would show
    assert any(row.nu_hat != row.nu_eps for row in run.rows)
    assert any(row.d_min_eps != row.d_min_raw for row in run.rows)
    assert any(row.sigma_pi_hat != row.sigma_pi_raw for row in run.rows)
    return run


@settings(max_examples=40, deadline=None)
@given(method=st.sampled_from(METHODS), svd_mode=st.sampled_from(MODES),
       ends=st.sets(st.integers(SPLIT_WINDOW - 1, len(SPLIT_PANEL.dates) - 2),
                    min_size=1, max_size=3))
def test_warm_start_at_any_split_points_is_bit_exact(method, svd_mode,
                                                     ends) -> None:
    cfg = PipelineConfig(window_m=SPLIT_WINDOW, method=method,
                         svd_mode=svd_mode)
    whole = _whole_run(method, svd_mode)
    pieces = []
    start, states = SPLIT_WINDOW - 1, None
    for end in sorted(ends) + [len(SPLIT_PANEL.dates) - 1]:
        pieces.append(run_srr_series(SPLIT_PANEL, cfg, start_index=start,
                                     end_index=end, states=states))
        start, states = end + 1, pieces[-1].states
    joined = SrrRun(sum((piece.dates for piece in pieces), ()),
                    np.concatenate([piece.values for piece in pieces]),
                    np.concatenate([piece.spectra for piece in pieces]),
                    states)
    assert _bits(joined) == _bits(whole)
    assert _level_bits(joined.states) == _level_bits(whole.states)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("band, value", [("epsilon", 1e-6), ("delta_nu", 0.5),
                                         ("delta_sigma", 1e-7)])
def test_warm_start_clamps_with_the_bands_of_its_own_config(method, band,
                                                            value) -> None:
    # The head's levels carry over; the tail's config sets the bands.
    panel = _noisy_panel(rows=110, n=4, seed=8)
    head_cfg = PipelineConfig(window_m=60, method=method)
    tail_cfg = replace(head_cfg, **{band: value})
    split = 80
    head = run_srr_series(panel, head_cfg, end_index=split)
    tail = run_srr_series(panel, tail_cfg, start_index=split + 1,
                          states=head.states)

    oracle_head = oracle_srr_series(panel, head_cfg, end_index=split)
    d_states, nu_state, sigma_states = oracle_head.states
    d_levels, sigma_levels = (
        np.array([0.0 if s.previous is None else s.previous for s in group])
        for group in (d_states, sigma_states))
    nu_level = nu_state.previous
    assert _level_bits(head.states) == (d_levels.tobytes(), nu_level.hex(),
                                        sigma_levels.tobytes())
    seeded = (tuple(ScalarClampState(tail_cfg.epsilon, v) for v in d_levels),
              ScalarClampState(tail_cfg.delta_nu, nu_level),
              tuple(ScalarClampState(tail_cfg.delta_sigma, v)
                    for v in sigma_levels))
    oracle_tail = oracle_srr_series(panel, tail_cfg, start_index=split + 1,
                                    states=seeded)
    assert _bits(tail) == _bits(oracle_tail)
    # the band matters here: the head's config continues differently
    same = run_srr_series(panel, head_cfg, start_index=split + 1,
                          states=head.states)
    assert same.rows != tail.rows


def test_warm_start_rejects_levels_of_another_asset_count() -> None:
    panel = _noisy_panel(rows=80, n=4, seed=9)
    cfg = PipelineConfig(window_m=60)
    head = run_srr_series(panel, cfg, end_index=70)
    narrow = ReturnMatrix(panel.dates, panel.asset_ids[:3],
                          panel.values[:, :3])
    with pytest.raises(ValueError, match="asset count"):
        run_srr_series(narrow, cfg, start_index=71, states=head.states)


def test_rerun_is_deterministic() -> None:
    panel = _gbm_panel(steps=700, seed=100)
    cfg = PipelineConfig(window_m=600)
    a = run_srr_series(panel, cfg)
    b = run_srr_series(panel, cfg)
    assert a.rows == b.rows


def _scripted_singular_run() -> SrrRun:
    """Seven dates of a two-asset run whose date 6 is singular."""
    healthy_sigma = np.array([[0.1], [0.3]])
    singular_sigma = np.array([[0.2], [0.2]])
    mu = np.array([0.01, 0.02])

    def scripted(w: ReturnMatrix) -> CalibratedModel:
        sigma = singular_sigma if w.dates[-1] == 6 else healthy_sigma
        return CalibratedModel(mu=mu, sigma=sigma, method="direct",
                               window_end_date=w.dates[-1])

    panel = _panel(np.full((10, 2), 0.01))
    return run_srr_series(panel, PipelineConfig(window_m=4),
                          calibrator=scripted)


def test_nan_in_values_marks_none_in_rows() -> None:
    run = _scripted_singular_run()
    blank = np.isnan(run.values)
    assert blank.any() and not blank.all()
    rows = run.rows
    assert blank.tolist() == [[v is None for v in list(vars(row).values())[1:]]
                              for row in rows]
    assert [row.date for row in rows] == list(run.dates)
    marked = np.array([[math.nan if v is None else v
                        for v in list(vars(row).values())[1:]]
                       for row in rows])
    assert marked.tobytes() == run.values.tobytes()
    # both views are rebuilt on each access, so changing one leaves the run
    spectra = run.spectra.copy()
    run.singular_values[0][1][:] = -1.0
    np.testing.assert_array_equal(run.spectra, spectra)
    assert run.rows is not rows and run.rows == rows


def test_one_date_update_builds_no_rows(monkeypatch) -> None:
    panel = _gbm_panel(steps=700, seed=101)
    cfg = PipelineConfig(window_m=600)
    head = run_srr_series(panel, cfg, end_index=650)
    built: list = []
    monkeypatch.setattr(pipeline, "SrrSeriesRow",
                        lambda *args: built.append(args))
    update = run_srr_series(panel, cfg, start_index=651, end_index=651,
                            states=head.states)
    assert built == []
    monkeypatch.undo()
    assert update.rows == run_srr_series(panel, cfg).rows[52:53]


def test_csv_round_trip_with_markers(tmp_path) -> None:
    run = _scripted_singular_run()
    rows_path = tmp_path / "rows.csv"
    write_rows_csv(run, rows_path)
    text = rows_path.read_text().splitlines()
    assert text[0] == ",".join(ROW_FIELDS)
    bad_line = next(line for line in text[1:] if line.startswith("6,"))
    fields = bad_line.split(",")
    assert fields[1] == "" and fields[4] == ""  # markers became blanks
    assert fields[2] != "" and fields[3] != ""  # regularized path kept going

    loaded = read_rows_csv(rows_path)
    assert loaded == run.rows

    singular_path = tmp_path / "singular.csv"
    write_singular_csv(run, singular_path)
    lines = singular_path.read_text().splitlines()
    assert lines[0] == "date,d_1,d_2"
    assert len(lines) == 1 + len(run.rows)


def _csv_module_text(header: list[str], rows) -> str:
    """What the ``csv`` module writes for these cells, the reference for
    the writers' joined columns."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


@pytest.mark.parametrize("block", [1, 7, 512])
def test_csv_writers_match_the_csv_module(tmp_path, monkeypatch,
                                           block) -> None:
    # a blank-marked run and a longer one, written a block of rows at a time
    monkeypatch.setattr(market_data, "ROWS_PER_BLOCK", block)
    scripted = _scripted_singular_run()
    gbm = run_srr_series(_gbm_panel(steps=700, seed=100),
                         PipelineConfig(window_m=600))
    for run in (scripted, gbm):
        write_rows_csv(run, tmp_path / "rows.csv")
        assert (tmp_path / "rows.csv").read_text() == _csv_module_text(
            ROW_FIELDS,
            [[str(row.date)] + ["" if v is None else repr(float(v))
                                for v in list(vars(row).values())[1:]]
             for row in run.rows])
        write_singular_csv(run, tmp_path / "d.csv")
        n = len(run.singular_values[0][1])
        assert (tmp_path / "d.csv").read_text() == _csv_module_text(
            ["date"] + [f"d_{i + 1}" for i in range(n)],
            [[str(label)] + [repr(float(v)) for v in d]
             for label, d in run.singular_values])


def test_start_index_validation() -> None:
    panel = _gbm_panel(steps=700, seed=102)
    cfg = PipelineConfig(window_m=600)
    with pytest.raises(ValueError, match="precedes"):
        run_srr_series(panel, cfg, start_index=100)
    with pytest.raises(ValueError, match="outside"):
        run_srr_series(panel, cfg, end_index=10_000)
    with pytest.raises(ValueError, match="after"):
        run_srr_series(panel, cfg, start_index=690, end_index=650)
