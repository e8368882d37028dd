"""Price-panel ingestion, log-return construction, and universe selection.

Prices travel as one :class:`PricePanel`: a dates x assets matrix in which
NaN marks a date with no observation. ``load_prices`` builds it from either
CSV layout, ``log_returns`` turns its complete rows into a
:class:`ReturnMatrix`, and ``write_prices`` writes it back in the wide layout.

CSV surfaces
------------
long layout   : header ``date,asset_id,price``, one observation per row
wide layout   : header ``date,<id_1>,...,<id_N>``, one date per row
universe file : header ``asset_id,market_cap``
return panel  : header ``date,<id_1>,...,<id_N>`` with signed return cells

Dates are ISO-8601 calendar dates; bare integer day indices are also
accepted so synthetic panels round-trip through the same readers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date as _date
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

DateLabel = _date | int


class DataError(ValueError):
    """An input file or panel failed validation."""


def _parse_date_label(text: str, line_no: int) -> DateLabel:
    token = text.strip()
    digits = token[1:] if token.startswith("-") else token
    if digits.isascii() and digits.isdigit():  # int() also takes "+5", "1_000"
        return int(token)
    try:
        return _date.fromisoformat(token)
    except ValueError:
        raise DataError(f"line {line_no}: unparseable date {text!r}") from None


def _format_date_label(label: DateLabel) -> str:
    return label.isoformat() if isinstance(label, _date) else str(label)


def _format_float(value: float) -> str:
    # repr of a builtin float is the shortest decimal that round-trips.
    return repr(float(value))


def _date_order(label: DateLabel) -> tuple[bool, DateLabel]:
    # Sort key that groups calendar and integer dates instead of comparing
    # them, so a mixed file reaches the kind check in _check_dates.
    return isinstance(label, int), label


def _check_dates(dates, context: str) -> None:
    if len({type(d) for d in dates}) > 1:
        raise DataError(f"{context}: mixed calendar and integer dates")
    for a, b in zip(dates, dates[1:]):
        if not a < b:
            raise DataError(f"{context}: dates must be strictly increasing "
                            f"({a!r} followed by {b!r})")


@dataclass(frozen=True)
class PricePanel:
    """Prices of N assets on shared dates: ``prices[m, j]`` is asset j's
    price on ``dates[m]``, and NaN marks a date with no observation."""

    dates: tuple[DateLabel, ...]
    asset_ids: tuple[str, ...]
    prices: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "asset_ids", tuple(self.asset_ids))
        prices = np.asarray(self.prices, dtype=np.float64)
        object.__setattr__(self, "prices", prices)
        m, n = len(self.dates), len(self.asset_ids)
        if prices.shape != (m, n):
            raise DataError(f"price panel shape {prices.shape} does not match "
                            f"{m} dates x {n} assets")
        if len(set(self.asset_ids)) != n or not all(self.asset_ids):
            raise DataError("duplicate or empty asset ids in price panel")
        for asset_id, column in zip(self.asset_ids, prices.T):
            observed = column[~np.isnan(column)]
            if observed.size < 2:
                raise DataError(f"asset {asset_id!r}: need at least 2 "
                                f"observations")
            if not np.all((observed > 0.0) & (observed < math.inf)):
                raise DataError(f"asset {asset_id!r}: prices must be "
                                f"positive and finite")
        _check_dates(self.dates, "price panel")


@dataclass(frozen=True)
class ReturnMatrix:
    """M x N panel of log returns; row m is dated by the later day of its pair."""

    dates: tuple[DateLabel, ...]
    asset_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "asset_ids", tuple(self.asset_ids))
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        m, n = len(self.dates), len(self.asset_ids)
        if m < 1 or n < 1:
            raise DataError("return panel must have at least one row and one column")
        if values.shape != (m, n):
            raise DataError(f"return panel shape {values.shape} does not match "
                            f"{m} dates x {n} assets")
        if len(set(self.asset_ids)) != n:
            raise DataError("duplicate asset ids in return panel")
        if not np.all(np.isfinite(values)):
            raise DataError("return panel contains non-finite values")
        _check_dates(self.dates, "return panel")


@dataclass(frozen=True)
class UniverseEntry:
    asset_id: str
    market_cap: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.market_cap) and self.market_cap > 0.0):
            raise DataError(f"asset {self.asset_id!r}: market cap must be positive "
                            f"and finite, got {self.market_cap!r}")


# ---------------------------------------------------------------------------
# CSV readers / writers
# ---------------------------------------------------------------------------

def _read_table(path: Path | str, header_ok: Callable[[list[str]], bool],
                header_rule: str) -> Iterator:
    """Yield a CSV table's header, then ``(line number, cells)`` for each
    data row.

    Raises :class:`DataError` for a missing or empty file, for a header that
    fails ``header_ok`` (the message states ``header_rule``), and for a row
    whose cell count differs from the header's. Blank rows are skipped.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8-sig") as fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        if not header_ok(header):
            raise DataError(f"{path}: {header_rule}")
        yield header
        width = len(header)
        for line_no, row in enumerate(rows, start=2):
            if not row:
                continue
            if len(row) != width:
                raise DataError(f"line {line_no}: expected {width} cells, "
                                f"got {len(row)}")
            yield line_no, row


# Rows _write_table formats at a time, which bounds its memory.
ROWS_PER_BLOCK = 512


def _write_table(path: Path | str, header, dates, values: np.ndarray) -> None:
    """Write ``header`` through the ``csv`` module, which quotes the cells
    that need it, then each date's label and row of ``values`` (NaN as a
    blank cell), which never need quoting, joined a block at a time."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for a in range(0, len(dates), ROWS_PER_BLOCK):
            b = a + ROWS_PER_BLOCK
            columns = [map(_format_date_label, dates[a:b])]
            columns += (["" if v != v else repr(v) for v in column]
                        for column in values[a:b].T.tolist())
            fh.write("".join([",".join(cells) + "\n"
                              for cells in zip(*columns)]))


def _is_dated_header(header: list[str]) -> bool:
    return header[:1] == ["date"] and len(header) >= 2


def _parse_price_cell(text: str, line_no: int, asset_id: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"line {line_no}: non-numeric price {text!r} "
                        f"for asset {asset_id!r}") from None
    if not (math.isfinite(value) and value > 0.0):
        raise DataError(f"line {line_no}: non-positive price {text!r} "
                        f"for asset {asset_id!r}")
    return value


def _read_wide(path: Path | str, header_rule: str,
               parse_cell: Callable[[str, int, str], float]
               ) -> tuple[list[str], list[DateLabel], np.ndarray]:
    """Read a ``date,<ids>`` table into its ids, its sorted dates and the
    matching matrix of ``parse_cell(text, line_no, asset_id)``; a duplicate
    date or a table without data rows raises :class:`DataError`."""
    rows = _read_table(path, _is_dated_header, header_rule)
    ids = next(rows)[1:]
    dated: dict[DateLabel, list[float]] = {}
    for line_no, row in rows:
        label = _parse_date_label(row[0], line_no)
        if label in dated:
            raise DataError(f"line {line_no}: duplicate date {row[0]!r}")
        dated[label] = [parse_cell(cell, line_no, asset_id)
                        for asset_id, cell in zip(ids, row[1:])]
    if not dated:
        raise DataError(f"{path}: no data rows")
    dates = sorted(dated, key=_date_order)
    return ids, dates, np.array([dated[d] for d in dates])


def load_prices(path: Path | str, layout: str = "wide") -> PricePanel:
    """Read a price CSV into a :class:`PricePanel`.

    ``layout`` is ``"wide"`` (one column per asset in header order, blank
    cell = missing) or ``"long"`` (``date,asset_id,price`` rows; columns in
    order of first appearance). Duplicate dates or (date, asset) pairs,
    non-numeric cells, and non-positive prices are rejected with the
    offending line number.
    """
    if layout == "wide":
        ids, dates, prices = _read_wide(
            path, "wide header must be 'date,<asset ids>'",
            lambda cell, line_no, asset_id: math.nan if cell.strip() == ""
            else _parse_price_cell(cell, line_no, asset_id))
    elif layout == "long":
        rows = _read_table(path, lambda h: h == ["date", "asset_id", "price"],
                           "long header must be 'date,asset_id,price'")
        next(rows)
        per_asset: dict[str, dict[DateLabel, float]] = {}
        for line_no, row in rows:
            label = _parse_date_label(row[0], line_no)
            asset_id = row[1].strip()
            if not asset_id:
                raise DataError(f"line {line_no}: empty asset id")
            bucket = per_asset.setdefault(asset_id, {})
            if label in bucket:
                raise DataError(f"line {line_no}: duplicate (date, asset) pair "
                                f"({row[0]!r}, {asset_id!r})")
            bucket[label] = _parse_price_cell(row[2], line_no, asset_id)
        ids = list(per_asset)
        dates = sorted(set().union(*per_asset.values()), key=_date_order)
        row_of = {d: m for m, d in enumerate(dates)}
        prices = np.full((len(dates), len(ids)), np.nan)
        for j, bucket in enumerate(per_asset.values()):
            prices[[row_of[d] for d in bucket], j] = list(bucket.values())
    else:
        raise DataError(f"unknown layout {layout!r}")
    return PricePanel(tuple(dates), tuple(ids), prices)


def write_prices(panel: PricePanel, path: Path | str) -> None:
    """Write a price panel in the wide layout (blank cell = no price on that
    date); output is canonical so a read-then-write cycle is byte-identical."""
    _write_table(path, ["date", *panel.asset_ids], panel.dates, panel.prices)


def load_universe(path: Path | str) -> list[UniverseEntry]:
    """Read an ``asset_id,market_cap`` CSV."""
    rows = _read_table(path, lambda h: h == ["asset_id", "market_cap"],
                       "header must be 'asset_id,market_cap'")
    next(rows)
    entries: list[UniverseEntry] = []
    seen: set[str] = set()
    for line_no, row in rows:
        asset_id = row[0].strip()
        if not asset_id:
            raise DataError(f"line {line_no}: empty asset id")
        if asset_id in seen:
            raise DataError(f"line {line_no}: duplicate asset id {asset_id!r}")
        seen.add(asset_id)
        try:
            cap = float(row[1])
        except ValueError:
            raise DataError(f"line {line_no}: non-numeric market cap "
                            f"{row[1]!r}") from None
        if not (math.isfinite(cap) and cap > 0.0):
            raise DataError(f"line {line_no}: market cap must be positive, "
                            f"got {row[1]!r}")
        entries.append(UniverseEntry(asset_id, cap))
    return entries


def _parse_return_cell(text: str, line_no: int, asset_id: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DataError(f"line {line_no}: non-numeric return cell {text!r} "
                        f"for asset {asset_id!r}") from None


def read_return_panel(path: Path | str) -> ReturnMatrix:
    """Read a wide ``date,<ids>`` CSV of signed returns (all cells required)."""
    ids, dates, values = _read_wide(path, "header must be 'date,<asset ids>'",
                                    _parse_return_cell)
    return ReturnMatrix(tuple(dates), tuple(ids), values)


# ---------------------------------------------------------------------------
# Panel construction
# ---------------------------------------------------------------------------

def log_returns(panel: PricePanel,
                policy: str = "intersect-dates") -> ReturnMatrix:
    """Take log ratios of consecutive prices on the dates every asset shares.

    ``values[m][j] = ln(P_j(d_{m+1}) / P_j(d_m))`` over those dates; row m
    carries the later date of its pair. ``policy`` is ``"intersect-dates"``
    (drop every date on which some asset has no price) or ``"error-on-gap"``
    (a missing price is an error naming the first such asset and date).
    """
    if policy not in ("intersect-dates", "error-on-gap"):
        raise DataError(f"unknown alignment policy {policy!r}")
    gap = np.isnan(panel.prices)
    if policy == "error-on-gap" and gap.any():
        j = int(gap.any(axis=0).argmax())
        first = panel.dates[gap[:, j].argmax()]
        raise DataError(f"asset {panel.asset_ids[j]!r} has a date gap at "
                        f"{_format_date_label(first)}")
    complete = ~gap.any(axis=1)
    if complete.sum() < 2:
        raise DataError(f"fewer than 2 common dates across "
                        f"{len(panel.asset_ids)} assets")
    dates = [panel.dates[m] for m in np.flatnonzero(complete)]
    p = panel.prices[complete]
    return ReturnMatrix(tuple(dates[1:]), panel.asset_ids,
                        np.log(p[1:] / p[:-1]))


def window(panel: ReturnMatrix, end_index: int, m: int) -> ReturnMatrix:
    """Rows ``end_index - m + 1 .. end_index`` (inclusive) as a read-only view.

    The window shares the parent panel's memory (a C-ordered parent is not
    copied; any other layout is copied once into C order) and is not
    re-validated: every row already passed the parent's checks. Writing to
    the window's values raises.
    """
    total = panel.values.shape[0]
    if not 0 <= end_index < total:
        raise DataError(f"end index {end_index} outside panel of {total} rows")
    if m < 1:
        raise DataError(f"window length must be positive, got {m}")
    if m > end_index + 1:
        raise DataError(f"insufficient history: window of {m} rows ending at "
                        f"index {end_index} needs {m - end_index - 1} more rows")
    start = end_index - m + 1
    values = np.ascontiguousarray(panel.values[start:end_index + 1])
    values.flags.writeable = False
    view = object.__new__(ReturnMatrix)
    object.__setattr__(view, "dates", panel.dates[start:end_index + 1])
    object.__setattr__(view, "asset_ids", panel.asset_ids)
    object.__setattr__(view, "values", values)
    return view


# ---------------------------------------------------------------------------
# Universe selection
# ---------------------------------------------------------------------------

def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def select_assets(universe: list[UniverseEntry], n: int) -> list[UniverseEntry]:
    """Pick n entries spread evenly across the cap-sorted universe.

    Entries are sorted ascending by market cap (asset id breaks ties so the
    result is invariant under input permutation). With ``e = size mod n``,
    the ceil(e/2) smallest and floor(e/2) largest entries are trimmed, and the
    k-th pick (1-based) is the element at index round_half_up((k-0.5)/n * U)
    of the remaining U entries.
    """
    if n < 1:
        raise DataError(f"selection size must be positive, got {n}")
    if len(universe) < n:
        raise DataError(f"universe of {len(universe)} is smaller than n={n}")
    ids = [e.asset_id for e in universe]
    if len(set(ids)) != len(ids):
        raise DataError("duplicate asset ids in universe")

    ordered = sorted(universe, key=lambda e: (e.market_cap, e.asset_id))
    e = len(ordered) % n
    bottom, top = (e + 1) // 2, e // 2
    trimmed = ordered[bottom:len(ordered) - top]
    u = len(trimmed)
    picks = []
    for k in range(1, n + 1):
        idx = _round_half_up((k - 0.5) / n * u)
        if not 1 <= idx <= u:
            raise DataError(f"selection index {idx} out of range 1..{u}")
        picks.append(trimmed[idx - 1])
    return picks
