"""Metamorphic relations of the raw rate solve.

Relabelling the assets permutes the rows of ``[1 | -sigma] x = mu`` and so
leaves the solution alone; adding a constant c to every log return adds c
to ``mu`` and nothing to the centred covariance, so it adds c to ``nu`` and
leaves ``sigma_pi`` alone. The data change in rounding, so each relation
holds to the solve's backward-stable bound 16 * kappa_raw * eps *
hypot(nu, sigma_pi) per date, the rule the benchmark applies to the same
two outputs.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from shadowrate.calibration import METHODS
from shadowrate.market_data import ReturnMatrix
from shadowrate.pipeline import PipelineConfig, SrrRun, run_srr_series

EPS = float(np.finfo(np.float64).eps)
SOLVE_C = 16.0
PANELS = 12
N = 5


def _factor_panel(rng: np.random.Generator, rows: int = 100) -> np.ndarray:
    """Correlated returns with asset-specific drifts, so kappa varies."""
    mixing = rng.standard_normal((N, N)) / math.sqrt(N)
    drift = 3e-4 * rng.standard_normal(N)
    return drift + 0.01 * rng.standard_normal((rows, N)) @ mixing


def _run(values: np.ndarray, method: str) -> SrrRun:
    panel = ReturnMatrix(tuple(range(len(values))),
                         tuple(f"A{j}" for j in range(values.shape[1])),
                         values)
    return run_srr_series(panel, PipelineConfig(window_m=80, method=method))


def _assert_related(base: SrrRun, other: SrrRun, shift: float) -> None:
    assert len(base.rows) == len(other.rows) == 21
    for a, b in zip(base.rows, other.rows):
        assert a.nu_raw is not None and b.nu_raw is not None
        size = max(math.hypot(a.nu_raw, a.sigma_pi_raw),
                   math.hypot(b.nu_raw, b.sigma_pi_raw))
        bound = SOLVE_C * max(a.kappa_raw, b.kappa_raw) * EPS * size
        assert abs(b.nu_raw - (a.nu_raw + shift)) <= bound, a.date
        assert abs(b.sigma_pi_raw - a.sigma_pi_raw) <= bound, a.date


@pytest.mark.parametrize("method", METHODS)
def test_permuting_assets_leaves_raw_rate_and_volatility(method) -> None:
    rng = np.random.default_rng(41)
    for _ in range(PANELS):
        values = _factor_panel(rng)
        order = np.arange(N)
        while (order == np.arange(N)).all():
            order = rng.permutation(N)
        _assert_related(_run(values, method), _run(values[:, order], method),
                        0.0)


@pytest.mark.parametrize("method", METHODS)
def test_shifting_every_return_shifts_only_the_raw_rate(method) -> None:
    rng = np.random.default_rng(42)
    for _ in range(PANELS):
        values = _factor_panel(rng)
        c = float(rng.uniform(-2e-3, 2e-3))
        _assert_related(_run(values, method), _run(values + c, method), c)
