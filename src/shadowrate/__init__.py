"""Shadow riskless rate estimation from panels of risky-asset prices.

The package calibrates an N-asset, (N-1)-factor market model on a moving
window of log returns, solves for the state-price deflator's drift and
volatility, and stabilizes the resulting daily series by clamping the
pricing matrix's singular spectrum and the solved series against their own
history. A seeded correlated-GBM generator provides synthetic panels with
known ground truth for testing.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .analysis import (FullUniverseResult, MinRateResult, QuantileSummary,
                       compare_full_universe, min_rate, min_variance_weights,
                       quantiles)
from .calibration import (CalibratedModel, calibrate, sigma_direct,
                          sigma_regression)
from .market_data import (DataError, PricePanel, ReturnMatrix, UniverseEntry,
                          load_prices, load_universe, log_returns,
                          read_return_panel, select_assets, window,
                          write_prices)
from .pca import PcaResult, center_columns, pca
from .pipeline import (PipelineConfig, RegularizerStates, SrrRun, SrrSeriesRow,
                       run_srr_series, write_rows_csv, write_singular_csv)
from .regularization import ClampState, clamp, regularize_singulars
from .solver import (DeflatorSolution, PhiSystem, SingularMatrixError,
                     SvdFactors, build_phi, solve_svd, svd_factors)
from .synthetic import GbmSpec, simulate_gbm

__all__ = [
    "__version__",
    "CalibratedModel", "ClampState", "DataError", "DeflatorSolution",
    "FullUniverseResult", "GbmSpec", "MinRateResult", "PcaResult",
    "PhiSystem", "PipelineConfig", "PricePanel", "QuantileSummary",
    "RegularizerStates", "ReturnMatrix", "SingularMatrixError", "SrrRun",
    "SrrSeriesRow", "SvdFactors", "UniverseEntry",
    "build_phi", "calibrate", "center_columns", "clamp",
    "compare_full_universe", "load_prices", "load_universe", "log_returns",
    "min_rate", "min_variance_weights", "pca", "quantiles",
    "read_return_panel", "regularize_singulars", "run_srr_series",
    "select_assets", "sigma_direct", "sigma_regression", "simulate_gbm",
    "solve_svd", "svd_factors", "window", "write_prices", "write_rows_csv",
    "write_singular_csv",
]
