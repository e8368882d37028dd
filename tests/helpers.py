"""CSV inputs, readers and writers that only the tests need: they write
inputs in layouts the command line never writes, and read back what it
wrote."""

from __future__ import annotations

import csv
import math
from datetime import date
from pathlib import Path

from shadowrate.market_data import PricePanel, ReturnMatrix
from shadowrate.pipeline import ROW_FIELDS, SrrSeriesRow

# Price files in both layouts whose assets each keep to one date kind, while
# the file as a whole mixes calendar and integer dates.
MIXED_DATE_KINDS = {
    "wide": "date,A,B\n2020-01-01,1.0,\n2020-01-02,2.0,\n5,,3.0\n6,,4.0\n",
    "long": "date,asset_id,price\n2020-01-01,A,1.0\n2020-01-02,A,2.0\n"
            "5,B,3.0\n6,B,4.0\n",
}


def _date_text(label) -> str:
    return label.isoformat() if isinstance(label, date) else str(label)


def _date_label(text: str):
    return int(text) if text.lstrip("-").isdigit() else date.fromisoformat(text)


def _write(path, header: list[str], rows) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_long_prices(panel: PricePanel, path) -> None:
    """``date,asset_id,price`` rows, asset by asset; a NaN price has no row."""
    columns = zip(panel.asset_ids, panel.prices.T.tolist())
    _write(path, ["date", "asset_id", "price"],
           ([_date_text(d), asset_id, repr(p)]
            for asset_id, column in columns
            for d, p in zip(panel.dates, column) if not math.isnan(p)))


def write_return_panel(panel: ReturnMatrix, path) -> None:
    """A wide ``date,<ids>`` table of signed returns."""
    _write(path, ["date", *panel.asset_ids],
           ([_date_text(d)] + [repr(float(v)) for v in row]
            for d, row in zip(panel.dates, panel.values)))


def read_rows_csv(path) -> list[SrrSeriesRow]:
    """The rows of an ``srr`` rate CSV; a blank cell reads as None."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        assert next(reader) == list(ROW_FIELDS)
        return [SrrSeriesRow(_date_label(row[0]),
                             *(None if c == "" else float(c) for c in row[1:]))
                for row in reader]
