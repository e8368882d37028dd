"""Price-panel ingestion, log-return construction, and universe selection.

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

import numpy as np

DateLabel = _date | int


class DataError(ValueError):
    """An input file or panel failed validation."""


def _parse_date_label(text: str, line_no: int) -> DateLabel:
    token = text.strip()
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return _date.fromisoformat(token)
    except ValueError:
        raise DataError(f"line {line_no}: unparseable date {text!r}") from None


def _format_date_label(label: DateLabel) -> str:
    return label.isoformat() if isinstance(label, _date) else str(label)


def _format_float(value: float) -> str:
    # repr of a builtin float is the shortest decimal that round-trips.
    return repr(float(value))


def _check_increasing(dates, context: str) -> None:
    for a, b in zip(dates, dates[1:]):
        if not a < b:
            raise DataError(f"{context}: dates must be strictly increasing "
                            f"({a!r} followed by {b!r})")


@dataclass(frozen=True)
class PriceSeries:
    """Positive price observations for one asset on strictly increasing dates."""

    asset_id: str
    dates: tuple[DateLabel, ...]
    prices: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", tuple(self.dates))
        prices = np.asarray(self.prices, dtype=np.float64)
        object.__setattr__(self, "prices", prices)
        if len(self.dates) < 2:
            raise DataError(f"asset {self.asset_id!r}: need at least 2 observations")
        if prices.shape != (len(self.dates),):
            raise DataError(f"asset {self.asset_id!r}: {len(self.dates)} dates but "
                            f"price array of shape {prices.shape}")
        if not np.all(np.isfinite(prices)) or np.any(prices <= 0.0):
            raise DataError(f"asset {self.asset_id!r}: prices must be positive and finite")
        _check_increasing(self.dates, f"asset {self.asset_id!r}")


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
        _check_increasing(self.dates, "return panel")

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


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

def _open_rows(path: Path | str):
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        yield from csv.reader(fh)


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


def load_prices(path: Path | str, layout: str = "wide") -> list[PriceSeries]:
    """Read a price CSV into one :class:`PriceSeries` per asset.

    ``layout`` is ``"wide"`` (one column per asset, blank cell = missing) or
    ``"long"`` (``date,asset_id,price`` rows). Duplicate (date, asset) pairs,
    non-numeric cells, and non-positive prices are rejected with the offending
    line number.
    """
    if layout not in ("wide", "long"):
        raise DataError(f"unknown layout {layout!r}")
    rows = _open_rows(path)
    try:
        header = next(rows)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None

    per_asset: dict[str, dict[DateLabel, float]] = {}
    if layout == "wide":
        if not header or header[0] != "date" or len(header) < 2:
            raise DataError(f"{path}: wide header must be 'date,<asset ids>'")
        ids = header[1:]
        if len(set(ids)) != len(ids) or any(not a for a in ids):
            raise DataError(f"{path}: asset ids must be unique and non-empty")
        per_asset = {a: {} for a in ids}
        seen_dates: set[DateLabel] = set()
        for line_no, row in enumerate(rows, start=2):
            if not row:
                continue
            if len(row) != len(ids) + 1:
                raise DataError(f"line {line_no}: expected {len(ids) + 1} cells, "
                                f"got {len(row)}")
            label = _parse_date_label(row[0], line_no)
            if label in seen_dates:
                raise DataError(f"line {line_no}: duplicate date {row[0]!r}")
            seen_dates.add(label)
            for asset_id, cell in zip(ids, row[1:]):
                if cell.strip() == "":
                    continue
                per_asset[asset_id][label] = _parse_price_cell(cell, line_no, asset_id)
    else:
        if header != ["date", "asset_id", "price"]:
            raise DataError(f"{path}: long header must be 'date,asset_id,price'")
        for line_no, row in enumerate(rows, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise DataError(f"line {line_no}: expected 3 cells, got {len(row)}")
            label = _parse_date_label(row[0], line_no)
            asset_id = row[1].strip()
            if not asset_id:
                raise DataError(f"line {line_no}: empty asset id")
            bucket = per_asset.setdefault(asset_id, {})
            if label in bucket:
                raise DataError(f"line {line_no}: duplicate (date, asset) pair "
                                f"({row[0]!r}, {asset_id!r})")
            bucket[label] = _parse_price_cell(row[2], line_no, asset_id)

    out = []
    for asset_id, obs in per_asset.items():
        key_kinds = {type(d) for d in obs}
        if len(key_kinds) > 1:
            raise DataError(f"asset {asset_id!r}: mixed calendar and integer dates")
        dates = sorted(obs)
        out.append(PriceSeries(asset_id, tuple(dates),
                               np.array([obs[d] for d in dates])))
    return out


def write_prices(series: list[PriceSeries], path: Path | str,
                 layout: str = "wide") -> None:
    """Write price series in the given layout; output is canonical so a
    read-then-write cycle is byte-identical."""
    if layout not in ("wide", "long"):
        raise DataError(f"unknown layout {layout!r}")
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if layout == "long":
            writer.writerow(["date", "asset_id", "price"])
            for s in series:
                for d, p in zip(s.dates, s.prices):
                    writer.writerow([_format_date_label(d), s.asset_id,
                                     _format_float(p)])
        else:
            kinds = {type(d) for s in series for d in s.dates}
            if len(kinds) > 1:
                raise DataError("cannot mix calendar and integer dates in one file")
            all_dates = sorted({d for s in series for d in s.dates})
            writer.writerow(["date"] + [s.asset_id for s in series])
            lookup = [dict(zip(s.dates, s.prices)) for s in series]
            for d in all_dates:
                row = [_format_date_label(d)]
                for table in lookup:
                    p = table.get(d)
                    row.append("" if p is None else _format_float(p))
                writer.writerow(row)


def load_universe(path: Path | str) -> list[UniverseEntry]:
    """Read an ``asset_id,market_cap`` CSV."""
    rows = _open_rows(path)
    try:
        header = next(rows)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    if header != ["asset_id", "market_cap"]:
        raise DataError(f"{path}: header must be 'asset_id,market_cap'")
    entries: list[UniverseEntry] = []
    seen: set[str] = set()
    for line_no, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise DataError(f"line {line_no}: expected 2 cells, got {len(row)}")
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


def read_return_panel(path: Path | str) -> ReturnMatrix:
    """Read a wide ``date,<ids>`` CSV of signed returns (all cells required)."""
    rows = _open_rows(path)
    try:
        header = next(rows)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    if not header or header[0] != "date" or len(header) < 2:
        raise DataError(f"{path}: header must be 'date,<asset ids>'")
    ids = header[1:]
    dated: dict[DateLabel, list[float]] = {}
    for line_no, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != len(ids) + 1:
            raise DataError(f"line {line_no}: expected {len(ids) + 1} cells, "
                            f"got {len(row)}")
        label = _parse_date_label(row[0], line_no)
        if label in dated:
            raise DataError(f"line {line_no}: duplicate date {row[0]!r}")
        try:
            values = [float(c) for c in row[1:]]
        except ValueError:
            raise DataError(f"line {line_no}: non-numeric return cell") from None
        dated[label] = values
    if not dated:
        raise DataError(f"{path}: no data rows")
    kinds = {type(d) for d in dated}
    if len(kinds) > 1:
        raise DataError(f"{path}: mixed calendar and integer dates")
    dates = sorted(dated)
    return ReturnMatrix(tuple(dates), tuple(ids),
                        np.array([dated[d] for d in dates]))


def write_return_panel(panel: ReturnMatrix, path: Path | str) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date"] + list(panel.asset_ids))
        for label, row in zip(panel.dates, panel.values):
            writer.writerow([_format_date_label(label)]
                            + [_format_float(v) for v in row])


# ---------------------------------------------------------------------------
# Panel construction
# ---------------------------------------------------------------------------

def log_returns(series: list[PriceSeries],
                policy: str = "intersect-dates") -> ReturnMatrix:
    """Align price series on a shared date grid and take log ratios.

    ``values[m][j] = ln(P_j(d_{m+1}) / P_j(d_m))`` on the aligned grid; row m
    carries the later date of its pair. ``policy`` is ``"intersect-dates"``
    (use dates common to all series) or ``"error-on-gap"`` (all series must
    share an identical grid).
    """
    if not series:
        raise DataError("no price series given")
    ids = [s.asset_id for s in series]
    if len(set(ids)) != len(ids):
        raise DataError("duplicate asset ids")
    if policy not in ("intersect-dates", "error-on-gap"):
        raise DataError(f"unknown alignment policy {policy!r}")

    date_sets = [set(s.dates) for s in series]
    if policy == "intersect-dates":
        common = set.intersection(*date_sets)
        if len(common) < 2:
            raise DataError(f"fewer than 2 common dates across {len(series)} series")
        aligned = sorted(common)
    else:
        union = sorted(set.union(*date_sets))
        for s, have in zip(series, date_sets):
            missing = [d for d in union if d not in have]
            if missing:
                raise DataError(f"asset {s.asset_id!r} has a date gap at "
                                f"{_format_date_label(missing[0])}")
        aligned = union

    columns = []
    for s in series:
        table = dict(zip(s.dates, s.prices))
        prices = np.array([table[d] for d in aligned])
        columns.append(np.log(prices[1:] / prices[:-1]))
    return ReturnMatrix(tuple(aligned[1:]), tuple(ids),
                        np.column_stack(columns))


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
