"""Workload definitions and the benchmark's own seeded input generators.

Each workload names one price file, the ``srr`` settings it is estimated
with and how the library user splits it into a backfill and single-date
updates. ``paper-n40`` and ``incremental-n5`` take their prices from the
program's own ``simulate`` command; the two others come from the generators
below, which need nothing from the program, so the benchmark knows the
prices it handed over without reading them back through the program's
loader.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

BASE_DATE = date(1990, 1, 1)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int                  # assets
    window: int             # trailing window M
    method: str             # srr --method
    layout: str             # price CSV layout
    out_dates: int          # srr output dates
    updates: int            # single-date library calls after the backfill
    from_simulate: bool     # prices made by the program's simulate command
    min_rate: bool = True   # check min-rate; it fails on some spike seeds
    dead_span: int = 0      # spike: return rows with one factor switched off
    dup_rows: int = 0       # singular start: leading rows, last asset == first

    @property
    def return_rows(self) -> int:
        return self.out_dates + self.window - 1

    @property
    def backfill(self) -> int:
        return self.out_dates - self.updates


WORKLOADS = {
    "paper-n40": Workload("paper-n40", n=40, window=2500, method="direct",
                          layout="wide", out_dates=2501, updates=1000,
                          from_simulate=True),
    "spike-n5-regression": Workload(
        "spike-n5-regression", n=5, window=250, method="regression",
        layout="long", out_dates=8001, updates=1000, from_simulate=False,
        min_rate=False, dead_span=390),
    "incremental-n5": Workload("incremental-n5", n=5, window=2500,
                               method="direct", layout="wide",
                               out_dates=3500, updates=1000,
                               from_simulate=True),
    "singular-start-n4": Workload(
        "singular-start-n4", n=4, window=100, method="direct",
        layout="wide", out_dates=3000, updates=1000, from_simulate=False,
        dup_rows=120),
}

# singular-start-n4 always uses this seed: its failures are a fault of the
# program, and their count must not move with --seed.
SINGULAR_START_SEED = 4


def smoke_size(w: Workload) -> Workload:
    """The same workload shape at a size that runs in a few seconds."""
    window = min(w.window, 60 if w.n < 10 else 300)
    return Workload(w.name, w.n, window, w.method, w.layout,
                    out_dates=min(w.out_dates, 300),
                    updates=40, from_simulate=w.from_simulate,
                    min_rate=w.min_rate,
                    dead_span=w.dead_span and window + 40,
                    dup_rows=w.dup_rows and window + 20)


@dataclass(frozen=True)
class Prices:
    """Price dates (ISO strings) and, per asset, the dates it trades and its
    prices on them."""

    asset_ids: list[str]
    dates: list[str]
    present: np.ndarray     # (dates, assets) bool
    values: np.ndarray      # (dates, assets) float, NaN where absent

    def common_returns(self) -> np.ndarray:
        """Log returns on the dates every asset trades, in the benchmark's
        own arithmetic."""
        keep = self.present.all(axis=1)
        p = self.values[keep]
        return np.log(p[1:] / p[:-1])


def _calendar(count: int) -> list[str]:
    return [(BASE_DATE + timedelta(days=i)).isoformat() for i in range(count)]


def _loadings(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    mu = rng.uniform(1e-4, 8e-4, n)
    sigma = 0.015 * rng.standard_normal((n, n - 1)) / np.sqrt(n - 1)
    return mu, sigma


def _prices(increments: np.ndarray) -> np.ndarray:
    n = increments.shape[1]
    out = np.empty((increments.shape[0] + 1, n))
    out[0] = 100.0
    out[1:] = 100.0 * np.exp(np.cumsum(increments, axis=0))
    return out


def spike_prices(w: Workload, seed: int) -> Prices:
    """N-asset, (N-1)-factor prices on a daily calendar. Each asset misses
    30 to 45 dates, and one factor's shocks are zero over ``dead_span``
    return rows, so windows inside that span lose a rank."""
    rng = np.random.default_rng([seed, 5])
    n = w.n
    mu, sigma = _loadings(rng, n)
    misses = rng.integers(30, 46, n) if w.out_dates > 1000 else np.full(n, 3)
    total = w.return_rows + 1 + int(misses.sum())
    present = np.ones((total, n), dtype=bool)
    for j in range(n):
        present[rng.choice(np.arange(1, total - 1), misses[j],
                           replace=False), j] = False
    common = np.flatnonzero(present.all(axis=1))
    last = common[w.return_rows]          # the (return_rows+1)-th common date
    present = present[:last + 1]
    common = common[:w.return_rows + 1]
    total = last + 1

    # The model path lives on the common dates alone; a date some asset
    # misses gets a price that the date alignment drops again.
    z = rng.standard_normal((w.return_rows, n - 1))
    z[rng.integers(2 * w.window, w.return_rows - w.dead_span - w.window)
      + np.arange(w.dead_span), rng.integers(n - 1)] = 0.0
    drift = mu - 0.5 * (sigma * sigma).sum(axis=1)
    path = _prices(drift + z @ sigma.T)
    values = path[np.searchsorted(common, np.arange(total), side="right") - 1]
    values *= np.exp(0.005 * rng.standard_normal((total, n))
                     * ~np.isin(np.arange(total), common)[:, None])
    values[~present] = np.nan
    return Prices([f"S{j + 1}" for j in range(n)], _calendar(total),
                  present, values)


def singular_start_prices(w: Workload) -> Prices:
    """N-asset prices whose last asset repeats the first for ``dup_rows``
    return rows, then follows its own loadings."""
    rng = np.random.default_rng([SINGULAR_START_SEED, 4])
    n = w.n
    mu, sigma = _loadings(rng, n)
    z = rng.standard_normal((w.return_rows, n - 1))
    drift = mu - 0.5 * (sigma * sigma).sum(axis=1)
    increments = drift + z @ sigma.T
    increments[:w.dup_rows, n - 1] = increments[:w.dup_rows, 0]
    values = _prices(increments)
    total = values.shape[0]
    return Prices([f"D{j + 1}" for j in range(n)], _calendar(total),
                  np.ones((total, n), dtype=bool), values)


def write_prices(prices: Prices, layout: str, path: Path) -> None:
    """Write prices with ``repr`` floats, so the program reads back exactly
    the benchmark's values."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        if layout == "long":
            out.writerow(["date", "asset_id", "price"])
            for j, asset in enumerate(prices.asset_ids):
                for i in np.flatnonzero(prices.present[:, j]):
                    out.writerow([prices.dates[i], asset,
                                  repr(float(prices.values[i, j]))])
        else:
            out.writerow(["date"] + prices.asset_ids)
            for i, label in enumerate(prices.dates):
                out.writerow([label] + [repr(float(v)) if ok else ""
                                        for v, ok in zip(prices.values[i],
                                                         prices.present[i])])


def read_wide_prices(path: Path) -> Prices:
    """Parse a wide price CSV with the standard library alone."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    values = np.array([[float(c) if c else np.nan for c in row[1:]]
                       for row in rows[1:]])
    return Prices(rows[0][1:], [row[0] for row in rows[1:]],
                  ~np.isnan(values), values)
