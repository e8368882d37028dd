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

# The price CSV layouts ``load_prices`` reads and the policies by which
# ``log_returns`` aligns dates across assets; the first of each is the default.
LAYOUTS = ("wide", "long")
ALIGNMENTS = ("intersect-dates", "error-on-gap")


class DataError(ValueError):
    """An input file or panel failed validation."""


def _number(text: str, convert: type = float):
    """``convert(text)`` for text in the one numeric grammar of outside
    input: ASCII, no ``_``, and taken by ``convert`` (``float`` or
    ``int``), so surrounding spaces, tabs, CR, LF, VT and FF pass, and
    ``inf`` and ``nan`` as floats. Other text raises ValueError."""
    if text.isascii() and "_" not in text:
        return convert(text)
    raise ValueError(f"not an ASCII number: {text!r}")


def _parse_cell(text: str, line_no: int, asset_id: str, kind: str,
                positive: bool = False) -> float:
    """``_number(text)`` if finite, and with ``positive`` above 0; else a
    DataError naming the line, the ``kind`` of cell and the asset."""
    try:
        value = _number(text)
        if math.isfinite(value) and (value > 0.0 or not positive):
            return value
        problem = "non-positive" if math.isfinite(value) else "non-finite"
    except ValueError:
        problem = "non-numeric"
    raise DataError(f"line {line_no}: {problem} {kind} {text!r} "
                    f"for asset {asset_id!r}")


def _parse_date_label(text: str, line_no: int) -> DateLabel:
    token = text.strip()
    try:  # a day index is ASCII digits after an optional "-"
        if token.removeprefix("-").isdigit():
            return _number(token, int)
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


def _check_panel(panel, field: str, context: str) -> np.ndarray:
    """Store ``panel``'s dates and ids as tuples and its ``field`` as float64,
    check the shape, the ids and the dates, and return the matrix."""
    object.__setattr__(panel, "dates", tuple(panel.dates))
    object.__setattr__(panel, "asset_ids", tuple(panel.asset_ids))
    matrix = np.asarray(getattr(panel, field), dtype=np.float64)
    object.__setattr__(panel, field, matrix)
    m, n = len(panel.dates), len(panel.asset_ids)
    if matrix.shape != (m, n):
        raise DataError(f"{context} shape {matrix.shape} does not match "
                        f"{m} dates x {n} assets")
    if len(set(panel.asset_ids)) != n or not all(panel.asset_ids):
        raise DataError(f"duplicate or empty asset ids in {context}")
    _check_dates(panel.dates, context)
    return matrix


@dataclass(frozen=True)
class PricePanel:
    """Prices of N assets on shared dates: ``prices[m, j]`` is asset j's
    price on ``dates[m]``, and NaN marks a date with no observation."""

    dates: tuple[DateLabel, ...]
    asset_ids: tuple[str, ...]
    prices: np.ndarray

    def __post_init__(self) -> None:
        prices = _check_panel(self, "prices", "price panel")
        for asset_id, column in zip(self.asset_ids, prices.T):
            observed = column[~np.isnan(column)]
            if observed.size < 2:
                raise DataError(f"asset {asset_id!r}: need at least 2 "
                                f"observations")
            if not np.all((observed > 0.0) & (observed < math.inf)):
                raise DataError(f"asset {asset_id!r}: prices must be "
                                f"positive and finite")


@dataclass(frozen=True)
class ReturnMatrix:
    """M x N panel of log returns; row m is dated by the later day of its pair."""

    dates: tuple[DateLabel, ...]
    asset_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = _check_panel(self, "values", "return panel")
        if values.size == 0:
            raise DataError("return panel must have at least one row and one column")
        if not np.all(np.isfinite(values)):
            raise DataError("return panel contains non-finite values")


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


def _read_wide(path: Path | str, header_rule: str, prices: bool
               ) -> tuple[list[str], list[DateLabel], np.ndarray]:
    """Read a ``date,<ids>`` table into its stripped ids, its sorted dates
    and the matrix of its cells: with ``prices``, positive prices where a
    blank cell is missing (NaN), else finite returns in every cell. A bad
    cell, a duplicate date or a table without data rows raises
    :class:`DataError`."""
    kind = "price" if prices else "return cell"
    rows = _read_table(path, lambda h: h[:1] == ["date"] and len(h) >= 2,
                       header_rule)
    ids = [asset_id.strip() for asset_id in next(rows)[1:]]
    dated: dict[DateLabel, list[float]] = {}
    for line_no, row in rows:
        label = _parse_date_label(row[0], line_no)
        if label in dated:
            raise DataError(f"line {line_no}: duplicate date {row[0]!r}")
        dated[label] = [  # blank: the ASCII whitespace float() strips
            math.nan if prices and not cell.strip(" \t\n\r\v\f")
            else _parse_cell(cell, line_no, asset_id, kind, prices)
            for asset_id, cell in zip(ids, row[1:])]
    if not dated:
        raise DataError(f"{path}: no data rows")
    dates = sorted(dated, key=_date_order)
    return ids, dates, np.array([dated[d] for d in dates])


def load_prices(path: Path | str, layout: str = LAYOUTS[0]) -> PricePanel:
    """Read a price CSV into a :class:`PricePanel`.

    ``layout`` is ``"wide"`` (one column per asset in header order; a blank
    cell, empty or of the ASCII whitespace ``float`` strips, is missing)
    or ``"long"`` (``date,asset_id,price`` rows; columns in order of first
    appearance). Duplicate dates or (date, asset) pairs and prices that
    are non-numeric (see ``_number``), non-finite or non-positive are
    rejected with the offending line number.
    """
    if layout not in LAYOUTS:
        raise DataError(f"unknown layout {layout!r}")
    if layout == "wide":
        ids, dates, prices = _read_wide(
            path, "wide header must be 'date,<asset ids>'", prices=True)
    else:
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
            bucket[label] = _parse_cell(row[2], line_no, asset_id, "price",
                                        positive=True)
        ids = list(per_asset)
        dates = sorted(set().union(*per_asset.values()), key=_date_order)
        row_of = {d: m for m, d in enumerate(dates)}
        prices = np.full((len(dates), len(ids)), np.nan)
        for j, bucket in enumerate(per_asset.values()):
            prices[[row_of[d] for d in bucket], j] = list(bucket.values())
    return PricePanel(dates, ids, prices)


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
        entries.append(UniverseEntry(asset_id, _parse_cell(
            row[1], line_no, asset_id, "market cap", positive=True)))
    return entries


def read_return_panel(path: Path | str) -> ReturnMatrix:
    """Read a wide ``date,<ids>`` CSV of signed returns (all cells required)."""
    ids, dates, values = _read_wide(
        path, "header must be 'date,<asset ids>'", prices=False)
    return ReturnMatrix(dates, ids, values)


# ---------------------------------------------------------------------------
# Panel construction
# ---------------------------------------------------------------------------

def log_returns(panel: PricePanel,
                policy: str = ALIGNMENTS[0]) -> ReturnMatrix:
    """Take log ratios of consecutive prices on the dates every asset shares.

    ``values[m][j] = ln(P_j(d_{m+1}) / P_j(d_m))`` over those dates; row m
    carries the later date of its pair. ``policy`` is ``"intersect-dates"``
    (drop every date on which some asset has no price) or ``"error-on-gap"``
    (a missing price is an error naming the first such asset and date).
    """
    if policy not in ALIGNMENTS:
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
    return ReturnMatrix(dates[1:], panel.asset_ids,
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
