"""Market-data ingestion, return construction, and selection tests."""

from __future__ import annotations

import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowrate.market_data import (DataError, PriceSeries, ReturnMatrix,
                                    UniverseEntry, load_prices, load_universe,
                                    log_returns, read_return_panel,
                                    select_assets, window, write_prices)

from helpers import write_long_prices, write_return_panel


def _series(asset_id: str, prices, start: int = 0) -> PriceSeries:
    return PriceSeries(asset_id, tuple(range(start, start + len(prices))),
                       np.asarray(prices, dtype=float))


# ---------------------------------------------------------------------------
# PriceSeries / ReturnMatrix validation
# ---------------------------------------------------------------------------

def test_price_series_rejects_nonpositive_prices() -> None:
    with pytest.raises(DataError):
        _series("X", [100.0, 0.0])
    with pytest.raises(DataError):
        _series("X", [100.0, -1.0])


def test_price_series_rejects_short_and_unsorted() -> None:
    with pytest.raises(DataError):
        _series("X", [100.0])
    with pytest.raises(DataError):
        PriceSeries("X", (2, 1), np.array([1.0, 2.0]))
    with pytest.raises(DataError):
        PriceSeries("X", (1, 1), np.array([1.0, 2.0]))


def test_return_matrix_validation() -> None:
    with pytest.raises(DataError):
        ReturnMatrix((0, 1), ("A", "A"), np.zeros((2, 2)))
    with pytest.raises(DataError):
        ReturnMatrix((0, 1), ("A", "B"), np.array([[0.0, np.nan],
                                                   [0.0, 0.0]]))
    with pytest.raises(DataError):
        ReturnMatrix((0,), ("A",), np.zeros((2, 1)))


# ---------------------------------------------------------------------------
# log_returns
# ---------------------------------------------------------------------------

def test_log_returns_single_asset_hand_value() -> None:
    # ln(110/100) evaluated independently: 0.09531017980432486
    panel = log_returns([_series("X", [100.0, 110.0])])
    assert panel.values.shape == (1, 1)
    assert panel.values[0, 0] == pytest.approx(0.09531017980432486, abs=1e-15)


def test_log_returns_dates_carry_later_day_of_pair() -> None:
    panel = log_returns([_series("X", [1.0, 2.0, 4.0])])
    assert panel.dates == (1, 2)
    np.testing.assert_allclose(panel.values[:, 0],
                               [math.log(2.0), math.log(2.0)])


def test_log_returns_intersect_dates() -> None:
    a = PriceSeries("A", (0, 1, 2, 3), np.array([1.0, 2.0, 3.0, 4.0]))
    b = PriceSeries("B", (1, 2, 3, 4), np.array([10.0, 20.0, 30.0, 40.0]))
    panel = log_returns([a, b], policy="intersect-dates")
    assert panel.dates == (2, 3)
    assert panel.asset_ids == ("A", "B")
    np.testing.assert_allclose(panel.values[0],
                               [math.log(3.0 / 2.0), math.log(2.0)])


def test_log_returns_too_few_common_dates() -> None:
    a = PriceSeries("A", (0, 1), np.array([1.0, 2.0]))
    b = PriceSeries("B", (1, 2), np.array([1.0, 2.0]))
    with pytest.raises(DataError, match="common dates"):
        log_returns([a, b], policy="intersect-dates")


def test_log_returns_error_on_gap_names_asset_and_date() -> None:
    a = PriceSeries("A", (0, 1, 2), np.array([1.0, 2.0, 3.0]))
    b = PriceSeries("B", (0, 2), np.array([1.0, 2.0]))
    with pytest.raises(DataError, match="'B'.*gap at 1"):
        log_returns([a, b], policy="error-on-gap")


def test_log_returns_duplicate_ids_rejected() -> None:
    with pytest.raises(DataError, match="duplicate"):
        log_returns([_series("A", [1.0, 2.0]), _series("A", [1.0, 2.0])])


def test_cumulated_returns_reconstruct_prices() -> None:
    rng = np.random.default_rng(7)
    prices = 100.0 * np.exp(np.cumsum(0.02 * rng.standard_normal((300, 3)),
                                      axis=0))
    series = [_series(f"A{j}", prices[:, j]) for j in range(3)]
    panel = log_returns(series)
    for j, s in enumerate(series):
        rebuilt = s.prices[0] * np.exp(np.cumsum(panel.values[:, j]))
        np.testing.assert_allclose(rebuilt, s.prices[1:], rtol=1e-12)


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------

def _random_series(count: int, length: int) -> list[PriceSeries]:
    rng = np.random.default_rng(11)
    start = date(2010, 1, 4)
    dates = tuple(start + timedelta(days=i) for i in range(length))
    out = []
    for j in range(count):
        prices = 50.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(length)))
        out.append(PriceSeries(f"A{j + 1}", dates, prices))
    return out


@pytest.mark.parametrize("layout", ["long", "wide"])
def test_write_read_write_is_byte_identical(tmp_path, layout) -> None:
    # the command line writes only the wide layout; the long one comes from
    # the test helper, so this checks that load_prices reads it exactly
    write = write_prices if layout == "wide" else write_long_prices
    series = _random_series(3, 2500)
    first = tmp_path / "first.csv"
    write(series, first)
    loaded = load_prices(first, layout=layout)
    assert [s.asset_id for s in loaded] == [s.asset_id for s in series]
    for a, b in zip(loaded, series):
        assert a.dates == b.dates
        np.testing.assert_array_equal(a.prices, b.prices)
    second = tmp_path / "second.csv"
    write(loaded, second)
    assert first.read_bytes() == second.read_bytes()


def test_load_prices_wide_blank_cells_are_missing(tmp_path) -> None:
    path = tmp_path / "p.csv"
    path.write_text("date,A,B\n2020-01-01,1.0,2.0\n2020-01-02,1.5,\n"
                    "2020-01-03,2.0,2.5\n")
    series = load_prices(path, layout="wide")
    assert len(series[0].dates) == 3
    assert len(series[1].dates) == 2


def test_load_prices_errors_report_line_numbers(tmp_path) -> None:
    path = tmp_path / "p.csv"
    path.write_text("date,A\n2020-01-01,1.0\n2020-01-02,oops\n")
    with pytest.raises(DataError, match="line 3"):
        load_prices(path)
    path.write_text("date,A\n2020-01-01,1.0\n2020-01-01,2.0\n")
    with pytest.raises(DataError, match="line 3.*duplicate"):
        load_prices(path)
    path.write_text("date,A\n2020-01-01,1.0\nnot-a-date,2.0\n")
    with pytest.raises(DataError, match="line 3.*unparseable"):
        load_prices(path)
    path.write_text("date,A\n2020-01-01,1.0\n2020-01-02,-3\n")
    with pytest.raises(DataError, match="line 3.*non-positive"):
        load_prices(path)


def test_load_prices_long_duplicate_pair(tmp_path) -> None:
    path = tmp_path / "p.csv"
    path.write_text("date,asset_id,price\n2020-01-01,A,1.0\n"
                    "2020-01-02,A,2.0\n2020-01-01,A,3.0\n")
    with pytest.raises(DataError, match="line 4.*duplicate"):
        load_prices(path, layout="long")


def test_load_prices_missing_file(tmp_path) -> None:
    with pytest.raises(DataError, match="no such file"):
        load_prices(tmp_path / "absent.csv")


def test_return_panel_round_trip(tmp_path) -> None:
    rng = np.random.default_rng(3)
    panel = ReturnMatrix(tuple(range(5)), ("A", "B"),
                         0.01 * rng.standard_normal((5, 2)))
    path = tmp_path / "r.csv"
    write_return_panel(panel, path)
    loaded = read_return_panel(path)
    assert loaded.dates == panel.dates
    assert loaded.asset_ids == panel.asset_ids
    np.testing.assert_array_equal(loaded.values, panel.values)


# ---------------------------------------------------------------------------
# window
# ---------------------------------------------------------------------------

def test_window_slices_exact_rows() -> None:
    values = np.arange(20.0).reshape(10, 2)
    panel = ReturnMatrix(tuple(range(10)), ("A", "B"), values)
    w = window(panel, end_index=6, m=4)
    assert w.dates == (3, 4, 5, 6)
    np.testing.assert_array_equal(w.values, values[3:7])


def test_window_is_a_read_only_view() -> None:
    values = np.arange(20.0).reshape(10, 2)
    panel = ReturnMatrix(tuple(range(10)), ("A", "B"), values)
    w = window(panel, end_index=6, m=4)
    assert np.shares_memory(w.values, panel.values)
    assert w.values.flags.c_contiguous
    with pytest.raises(ValueError, match="read-only"):
        w.values[0, 0] = -1.0
    np.testing.assert_array_equal(panel.values, np.arange(20.0).reshape(10, 2))
    assert panel.values.flags.writeable


def test_window_of_fortran_panel_is_a_c_ordered_copy() -> None:
    values = np.asfortranarray(np.arange(20.0).reshape(10, 2))
    panel = ReturnMatrix(tuple(range(10)), ("A", "B"), values)
    w = window(panel, end_index=6, m=4)
    assert w.values.flags.c_contiguous and not w.values.flags.writeable
    np.testing.assert_array_equal(w.values, values[3:7])


def test_window_insufficient_history() -> None:
    panel = ReturnMatrix(tuple(range(5)), ("A", "B"), np.zeros((5, 2)))
    with pytest.raises(DataError, match="insufficient history"):
        window(panel, end_index=2, m=4)
    with pytest.raises(DataError):
        window(panel, end_index=5, m=2)


# ---------------------------------------------------------------------------
# select_assets
# ---------------------------------------------------------------------------

def _universe(caps) -> list[UniverseEntry]:
    return [UniverseEntry(f"A{i:03d}", float(c)) for i, c in enumerate(caps)]


def test_select_56_of_28_takes_odd_positions() -> None:
    universe = _universe(range(1, 57))
    picks = select_assets(universe, 28)
    assert [p.market_cap for p in picks] == [float(c) for c in range(1, 57, 2)]


def test_select_exact_multiple_identity() -> None:
    universe = _universe(range(1, 29))
    picks = select_assets(universe, 28)
    assert [p.market_cap for p in picks] == [float(c) for c in range(1, 29)]


def test_select_trims_remainder_bottom_heavy() -> None:
    # 30 entries, n=28: e=2, trim 1 smallest and 1 largest, keep the rest.
    universe = _universe(range(1, 31))
    picks = select_assets(universe, 28)
    assert [p.market_cap for p in picks] == [float(c) for c in range(2, 30)]
    # 31 entries, n=28: e=3, trim 2 smallest and 1 largest.
    universe = _universe(range(1, 32))
    picks = select_assets(universe, 28)
    assert picks[0].market_cap == 3.0
    assert picks[-1].market_cap == 30.0


def test_select_errors() -> None:
    with pytest.raises(DataError):
        select_assets(_universe([1, 2]), 3)
    with pytest.raises(DataError):
        select_assets(_universe([1, 2]), 0)
    dupes = [UniverseEntry("A", 1.0), UniverseEntry("A", 2.0)]
    with pytest.raises(DataError, match="duplicate"):
        select_assets(dupes, 1)


@settings(max_examples=50)
@given(st.permutations(list(range(1, 41))), st.integers(1, 12))
def test_select_invariant_under_permutation(perm, n) -> None:
    baseline = select_assets(_universe(range(1, 41)), n)
    shuffled = [UniverseEntry(f"A{c - 1:03d}", float(c)) for c in perm]
    assert [p.asset_id for p in select_assets(shuffled, n)] == \
        [p.asset_id for p in baseline]
    caps = [p.market_cap for p in baseline]
    assert all(a < b for a, b in zip(caps, caps[1:]))


def test_load_universe(tmp_path) -> None:
    path = tmp_path / "u.csv"
    path.write_text("asset_id,market_cap\nAAA,5e9\nBBB,1e9\n")
    entries = load_universe(path)
    assert [e.asset_id for e in entries] == ["AAA", "BBB"]
    path.write_text("asset_id,market_cap\nAAA,5e9\nAAA,1e9\n")
    with pytest.raises(DataError, match="line 3.*duplicate"):
        load_universe(path)
    path.write_text("asset_id,market_cap\nAAA,-1\n")
    with pytest.raises(DataError, match="line 2"):
        load_universe(path)
