"""Market-data ingestion, return construction, and selection tests."""

from __future__ import annotations

import csv
import io
import math
import re
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shadowrate import market_data
from shadowrate.market_data import (DataError, PricePanel, ReturnMatrix,
                                    UniverseEntry, load_prices, load_universe,
                                    log_returns, read_return_panel,
                                    select_assets, window, write_prices)

from helpers import (MIXED_DATE_KINDS, cell_texts, in_grammar, same_bits,
                     write_long_prices, write_return_panel)

NAN = math.nan


def _single(asset_id: str, prices, start: int = 0) -> PricePanel:
    """One asset priced on the integer dates start, start + 1, ..."""
    return PricePanel(range(start, start + len(prices)), (asset_id,),
                      np.asarray(prices, dtype=float)[:, np.newaxis])


# ---------------------------------------------------------------------------
# PricePanel / ReturnMatrix validation
# ---------------------------------------------------------------------------

def test_price_series_rejects_nonpositive_prices() -> None:
    with pytest.raises(DataError):
        _single("X", [100.0, 0.0])
    with pytest.raises(DataError):
        _single("X", [100.0, -1.0])


def test_price_series_rejects_short_and_unsorted() -> None:
    with pytest.raises(DataError):
        _single("X", [100.0])
    with pytest.raises(DataError):
        PricePanel((2, 1), ("X",), np.array([[1.0], [2.0]]))
    with pytest.raises(DataError):
        PricePanel((1, 1), ("X",), np.array([[1.0], [2.0]]))


@pytest.mark.parametrize("dates, ids, prices, message", [
    ((0, 1), ("A",), [[1.0, 2.0], [1.0, 2.0]], "shape"),
    ((0, 1), ("A", ""), [[1.0, 2.0], [1.0, 2.0]], "empty asset ids"),
    ((0, 1), ("A", "B"), [[1.0, 2.0], [1.0, math.inf]], "'B'.*finite"),
    ((0, 1, 2), ("A", "B"), [[1.0, 2.0], [1.0, NAN], [1.0, NAN]],
     "'B'.*at least 2"),
    ((0, date(2020, 1, 2)), ("A",), [[1.0], [2.0]], "mixed"),
])
def test_price_panel_validation(dates, ids, prices, message) -> None:
    with pytest.raises(DataError, match=message):
        PricePanel(dates, ids, np.array(prices))


def test_return_matrix_validation() -> None:
    with pytest.raises(DataError):
        ReturnMatrix((0, 1), ("A", "A"), np.zeros((2, 2)))
    with pytest.raises(DataError):
        ReturnMatrix((0, 1), ("A", "B"), np.array([[0.0, np.nan],
                                                   [0.0, 0.0]]))
    with pytest.raises(DataError):
        ReturnMatrix((0,), ("A",), np.zeros((2, 1)))


def test_return_matrix_rejects_empty_ids() -> None:
    # the rule a price panel applies: both panel types share one check
    with pytest.raises(DataError, match="empty asset ids in return panel"):
        ReturnMatrix((0, 1), ("", "B"), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# log_returns
# ---------------------------------------------------------------------------

def test_log_returns_single_asset_hand_value() -> None:
    # ln(110/100) evaluated independently: 0.09531017980432486
    panel = log_returns(_single("X", [100.0, 110.0]))
    assert panel.values.shape == (1, 1)
    assert panel.values[0, 0] == pytest.approx(0.09531017980432486, abs=1e-15)


def test_log_returns_dates_carry_later_day_of_pair() -> None:
    panel = log_returns(_single("X", [1.0, 2.0, 4.0]))
    assert panel.dates == (1, 2)
    np.testing.assert_allclose(panel.values[:, 0],
                               [math.log(2.0), math.log(2.0)])


def test_log_returns_intersect_dates() -> None:
    # A is priced on dates 0..3, B on 1..4
    prices = PricePanel(range(5), ("A", "B"),
                        np.array([[1.0, NAN], [2.0, 10.0], [3.0, 20.0],
                                  [4.0, 30.0], [NAN, 40.0]]))
    panel = log_returns(prices, policy="intersect-dates")
    assert panel.dates == (2, 3)
    assert panel.asset_ids == ("A", "B")
    np.testing.assert_allclose(panel.values[0],
                               [math.log(3.0 / 2.0), math.log(2.0)])


def test_log_returns_too_few_common_dates() -> None:
    prices = PricePanel(range(3), ("A", "B"),
                        np.array([[1.0, NAN], [2.0, 1.0], [NAN, 2.0]]))
    with pytest.raises(DataError, match="common dates"):
        log_returns(prices, policy="intersect-dates")


def test_log_returns_error_on_gap_names_asset_and_date() -> None:
    prices = PricePanel(range(3), ("A", "B"),
                        np.array([[1.0, 1.0], [2.0, NAN], [3.0, 2.0]]))
    with pytest.raises(DataError, match="'B'.*gap at 1"):
        log_returns(prices, policy="error-on-gap")


def test_log_returns_duplicate_ids_rejected() -> None:
    with pytest.raises(DataError, match="duplicate"):
        log_returns(PricePanel((0, 1), ("A", "A"), np.ones((2, 2))))


def test_cumulated_returns_reconstruct_prices() -> None:
    rng = np.random.default_rng(7)
    prices = 100.0 * np.exp(np.cumsum(0.02 * rng.standard_normal((300, 3)),
                                      axis=0))
    panel = log_returns(PricePanel(range(300), ("A0", "A1", "A2"), prices))
    for j in range(3):
        rebuilt = prices[0, j] * np.exp(np.cumsum(panel.values[:, j]))
        np.testing.assert_allclose(rebuilt, prices[1:, j], rtol=1e-12)


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------

def _random_panel(count: int, length: int) -> PricePanel:
    rng = np.random.default_rng(11)
    start = date(2010, 1, 4)
    dates = [start + timedelta(days=i) for i in range(length)]
    prices = 50.0 * np.exp(np.cumsum(0.01 * rng.standard_normal((length,
                                                                 count)),
                                     axis=0))
    return PricePanel(dates, [f"A{j + 1}" for j in range(count)], prices)


def _assert_same_panel(a: PricePanel, b: PricePanel) -> None:
    assert a.dates == b.dates
    assert a.asset_ids == b.asset_ids
    # bit for bit, NaN in the same places
    assert a.prices.shape == b.prices.shape
    assert a.prices.tobytes() == b.prices.tobytes()


@pytest.mark.parametrize("layout", ["long", "wide"])
def test_write_read_write_is_byte_identical(tmp_path, layout) -> None:
    # the command line writes only the wide layout; the long one comes from
    # the test helper, so this checks that load_prices reads it exactly
    write = write_prices if layout == "wide" else write_long_prices
    prices = _random_panel(3, 2500)
    first = tmp_path / "first.csv"
    write(prices, first)
    loaded = load_prices(first, layout=layout)
    _assert_same_panel(loaded, prices)
    second = tmp_path / "second.csv"
    write(loaded, second)
    assert first.read_bytes() == second.read_bytes()


@st.composite
def _gappy_panels(draw) -> PricePanel:
    """Small panels with NaN gaps, every asset priced at least twice and
    every date priced for at least one asset (so the long layout, which has
    no row for a missing price, still carries every date)."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(2, 12))
    steps = draw(st.lists(st.integers(1, 40), min_size=m, max_size=m))
    first = draw(st.integers(-50, 50))
    offsets = np.cumsum([first] + steps[1:]).tolist()
    if draw(st.booleans()):
        dates = [date(2001, 6, 1) + timedelta(days=k) for k in offsets]
    else:
        dates = offsets
    # any ratio of two such prices is a finite float
    positive = st.floats(min_value=1e-100, max_value=1e100)
    prices = np.array(draw(st.lists(st.lists(positive, min_size=n, max_size=n),
                                    min_size=m, max_size=m)))
    gaps = np.array(draw(st.lists(st.lists(st.booleans(), min_size=n,
                                           max_size=n),
                                  min_size=m, max_size=m)))
    for i in range(m):
        if gaps[i].all():
            gaps[i, i % n] = False
    for j in range(n):
        if (~gaps[:, j]).sum() < 2:
            gaps[:2, j] = False
    prices[gaps] = NAN
    return PricePanel(dates, [f"A{j}" for j in range(n)], prices)


@settings(max_examples=60, deadline=None)
@given(_gappy_panels())
def test_price_panel_round_trips_through_both_layouts(tmp_path_factory,
                                                      prices) -> None:
    folder = tmp_path_factory.mktemp("prices")
    wide, long = folder / "wide.csv", folder / "long.csv"
    write_prices(prices, wide)
    write_long_prices(prices, long)
    _assert_same_panel(load_prices(wide, layout="wide"), prices)
    _assert_same_panel(load_prices(long, layout="long"),
                       load_prices(wide, layout="wide"))


@pytest.mark.parametrize("block", [1, 3, 512])
def test_write_prices_matches_the_csv_module(tmp_path, monkeypatch,
                                             block) -> None:
    # ids that need quoting, gaps, and a last block that is not full
    monkeypatch.setattr(market_data, "ROWS_PER_BLOCK", block)
    ids = ("plain", "with,comma", 'say "hi"')
    prices = np.arange(1.0, 31.0).reshape(10, 3) / 7.0
    prices[[1, 4], [0, 2]] = NAN
    dates = [date(2020, 1, 1) + timedelta(days=m) for m in range(10)]
    write_prices(PricePanel(dates, ids, prices), tmp_path / "p.csv")
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["date", *ids])
    writer.writerows([d.isoformat()] + ["" if math.isnan(p) else repr(p)
                                        for p in row]
                     for d, row in zip(dates, prices.tolist()))
    text = (tmp_path / "p.csv").read_text()
    assert text.startswith('date,plain,"with,comma","say ""hi"""\n')
    assert text == expected.getvalue()


def _expected_returns(prices: PricePanel) -> tuple[tuple, np.ndarray]:
    """Log ratios of consecutive fully priced rows, element by element."""
    rows = [m for m in range(len(prices.dates))
            if not np.isnan(prices.prices[m]).any()]
    values = [[np.log(prices.prices[b, j] / prices.prices[a, j])
               for j in range(len(prices.asset_ids))]
              for a, b in zip(rows, rows[1:])]
    return tuple(prices.dates[m] for m in rows[1:]), np.array(values)


@settings(max_examples=60, deadline=None)
@given(_gappy_panels())
def test_log_returns_on_gappy_panels(prices) -> None:
    dates, values = _expected_returns(prices)
    gaps = np.isnan(prices.prices)
    policies = ["intersect-dates"]
    if gaps.any():
        # the first asset, in column order, with a gap, at its first gap
        j = int(np.flatnonzero(gaps.any(axis=0))[0])
        label = prices.dates[int(np.flatnonzero(gaps[:, j])[0])]
        text = label.isoformat() if isinstance(label, date) else str(label)
        with pytest.raises(DataError, match=f"'{prices.asset_ids[j]}' has a "
                                            f"date gap at {text}$"):
            log_returns(prices, policy="error-on-gap")
    else:
        policies.append("error-on-gap")
    for policy in policies:
        if not dates:
            with pytest.raises(DataError, match="common dates"):
                log_returns(prices, policy=policy)
            continue
        panel = log_returns(prices, policy=policy)
        assert panel.dates == dates
        assert panel.asset_ids == prices.asset_ids
        assert panel.values.tobytes() == values.tobytes()


@pytest.mark.parametrize("layout, text", MIXED_DATE_KINDS.items())
def test_load_prices_rejects_mixed_date_kinds(tmp_path, layout, text) -> None:
    path = tmp_path / "p.csv"
    path.write_text(text)
    with pytest.raises(DataError, match="mixed calendar and integer dates"):
        load_prices(path, layout=layout)


def test_load_prices_wide_blank_cells_are_missing(tmp_path) -> None:
    path = tmp_path / "p.csv"
    path.write_text("date,A,B\n2020-01-01,1.0,2.0\n2020-01-02,1.5,\n"
                    "2020-01-03,2.0,2.5\n")
    prices = load_prices(path, layout="wide")
    assert len(prices.dates) == 3
    np.testing.assert_array_equal(np.isnan(prices.prices),
                                  [[False, False], [False, True],
                                   [False, False]])


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


@pytest.mark.parametrize("label", ["1_000", "٣", "+5"])
def test_load_prices_rejects_non_ascii_integer_dates(tmp_path, label) -> None:
    # int() accepts all three; a date label must be ASCII digits
    path = tmp_path / "p.csv"
    path.write_text(f"date,A\n7,1.0\n{label},2.0\n8,3.0\n", encoding="utf-8")
    with pytest.raises(DataError,
                       match=re.escape(f"line 3: unparseable date {label!r}")):
        load_prices(path)


def test_load_prices_accepts_signed_integer_and_iso_dates(tmp_path) -> None:
    path = tmp_path / "p.csv"
    path.write_text("date,A\n-3,1.0\n 42 ,2.0\n0,3.0\n")
    assert load_prices(path).dates == (-3, 0, 42)
    path.write_text("date,A\n2020-01-02,1.0\n2019-12-31,2.0\n")
    assert load_prices(path).dates == (date(2019, 12, 31), date(2020, 1, 2))


def test_load_prices_long_duplicate_pair(tmp_path) -> None:
    path = tmp_path / "p.csv"
    path.write_text("date,asset_id,price\n2020-01-01,A,1.0\n"
                    "2020-01-02,A,2.0\n2020-01-01,A,3.0\n")
    with pytest.raises(DataError, match="line 4.*duplicate"):
        load_prices(path, layout="long")


@pytest.mark.parametrize("read", [load_prices, read_return_panel])
def test_wide_header_ids_are_stripped(tmp_path, read) -> None:
    # as in the long layout: ' A' names asset A, so a blank id and a pair
    # that differs only by spaces are rejected
    path = tmp_path / "p.csv"
    path.write_text("date,A , B\n1,1.0,2.0\n2,1.5,2.5\n")
    assert read(path).asset_ids == ("A", "B")
    for header in ("date,A, ", "date, A,A"):
        path.write_text(f"{header}\n1,1.0,2.0\n2,1.5,2.5\n")
        with pytest.raises(DataError, match="duplicate or empty asset ids"):
            read(path)


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


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_return_panel_names_a_non_finite_cell(tmp_path, cell) -> None:
    path = tmp_path / "r.csv"
    path.write_text(f"date,A,B\n1,0.01,0.02\n2,0.03,0.04\n3,0.05,{cell}\n")
    with pytest.raises(DataError, match=f"line 4: non-finite return cell "
                                        f"'{cell}' for asset 'B'"):
        read_return_panel(path)


CELL = object()  # where a reader's file holds the cell under test

# Per reader: the file's rows, the line and asset of CELL, where its value
# lands in what the reader returns, and whether it must be positive.
CELL_READERS = {
    "wide prices": ([["date", "A", "B"], ["1", "1.0", "2.0"],
                     ["2", "1.5", CELL], ["3", "2.0", "2.5"]], 3, "B",
                    lambda path: load_prices(path).prices[1, 1], True),
    "long prices": ([["date", "asset_id", "price"], ["1", "A", "1.0"],
                     ["2", "A", "1.5"], ["1", "B", "2.0"], ["2", "B", CELL]],
                    5, "B",
                    lambda path: load_prices(path, "long").prices[1, 1], True),
    "return panel": ([["date", "A", "B"], ["1", "0.01", "0.02"],
                      ["2", "0.03", CELL]], 3, "B",
                     lambda path: read_return_panel(path).values[1, 1], False),
    "universe": ([["asset_id", "market_cap"], ["AAA", "5e9"], ["BBB", CELL]],
                 3, "BBB", lambda path: load_universe(path)[1].market_cap,
                 True),
}


@pytest.mark.parametrize("reader", CELL_READERS)
@settings(max_examples=150, deadline=None)
@given(text=cell_texts())
@example(text="\r\n")
def test_readers_take_exactly_the_numeric_grammar(tmp_path_factory, reader,
                                                  text) -> None:
    # a cell in the grammar reads as float(text)'s bits, or fails the
    # reader's finite or positive policy; any other cell is a DataError
    # naming its line and asset, except a blank wide price (missing)
    rows, line_no, asset_id, read, positive = CELL_READERS[reader]
    path = tmp_path_factory.mktemp("cells") / "cells.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        # the default "\r\n" terminator makes csv quote a cell holding "\r"
        csv.writer(fh).writerows([text if c is CELL else c for c in row]
                                 for row in rows)
    if reader == "wide prices" and not text.strip(" \t\n\r\v\f"):
        assert math.isnan(read(path))
        return
    value = float(text) if in_grammar(text) else NAN
    if math.isfinite(value) and (value > 0.0 or not positive):
        assert same_bits(read(path), value)
        return
    with pytest.raises(DataError) as info:
        read(path)
    assert str(info.value).startswith(f"line {line_no}: ")
    assert str(info.value).endswith(f" {text!r} for asset {asset_id!r}")


@pytest.mark.parametrize("cell", ["1_000", "١٢٣", "１０１", "101\xa0", "\xa0",
                                  "1e400", "nan"])
def test_wide_prices_name_a_cell_outside_the_grammar(tmp_path, cell) -> None:
    # float() takes the first five, and a no-break space alone used to read
    # as a blank cell, so intersect-dates dropped its date
    path = tmp_path / "p.csv"
    path.write_text(f"date,A,B\n2000-01-01,1.0,2.0\n2000-01-02,1.5,{cell}\n"
                    f"2000-01-03,2.0,2.5\n", encoding="utf-8")
    problem = "non-finite" if cell in ("1e400", "nan") else "non-numeric"
    with pytest.raises(DataError, match=re.escape(
            f"line 3: {problem} price {cell!r} for asset 'B'")):
        load_prices(path)


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


def test_byte_order_mark_is_ignored(tmp_path) -> None:
    # spreadsheet "CSV UTF-8" exports start with a UTF-8 byte-order mark
    panel = _random_panel(3, 20)
    plain = {name: tmp_path / f"{name}.csv"
             for name in ("wide", "long", "universe", "returns")}
    write_prices(panel, plain["wide"])
    write_long_prices(panel, plain["long"])
    plain["universe"].write_text("asset_id,market_cap\nAAA,5e9\nBBB,1e9\n")
    write_return_panel(log_returns(panel), plain["returns"])
    marked = {}
    for name, path in plain.items():
        marked[name] = tmp_path / f"bom-{name}.csv"
        marked[name].write_bytes(b"\xef\xbb\xbf" + path.read_bytes())

    for layout in ("wide", "long"):
        _assert_same_panel(load_prices(marked[layout], layout=layout),
                           load_prices(plain[layout], layout=layout))
    assert load_universe(marked["universe"]) == load_universe(plain["universe"])
    bom, ref = (read_return_panel(marked["returns"]),
                read_return_panel(plain["returns"]))
    assert (bom.dates, bom.asset_ids) == (ref.dates, ref.asset_ids)
    assert bom.values.tobytes() == ref.values.tobytes()
