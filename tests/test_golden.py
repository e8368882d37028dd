"""Golden CLI run: ``simulate`` then ``srr`` on both calibration routes with
fixed seeds, pinned by the SHA-256 digests of every output CSV.

The digests were recorded with numpy's bundled OpenBLAS on x86-64. Changes
that are meant to keep every output bit (refactors, speed-ups) must leave
them as they are; a change that alters output bits on purpose updates them
and says so in CHANGES.md. Another BLAS or CPU may legitimately round the
last bits differently.
"""

from __future__ import annotations

import hashlib

import pytest

from shadowrate.cli import main

DIGESTS = {
    "prices.csv":
        "1c3ff988f53159632ae6f2d658b622e0eb7c410a82d3061cf3c9be4bd39126e5",
    "direct.csv":
        "cef0a6424473c613ff131dc78601f8f2cb478ae37d6a008addd50672526eeee6",
    "direct.singular-values.csv":
        "e1234ee612195b03cb51b5797ae9ad12ca6169703677c65f92c7dcff0c98cbd0",
    "regression.csv":
        "7df2fec659972fed33ce4fd8795892d4c5321a52e57bf5f788ed92e59a70cdcb",
    "regression.singular-values.csv":
        "f693c8a7c92de3c2e77ac3933af3ba74e0ea4f6b78997fe1392a7c39276e31d4",
}


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    prices = str(out / "prices.csv")
    assert main(["simulate", "--n", "4", "--steps", "400", "--seed", "7",
                 "--out", prices]) == 0
    assert main(["srr", "--prices", prices, "--window", "250",
                 "--out", str(out / "direct.csv")]) == 0
    assert main(["srr", "--prices", prices, "--window", "250",
                 "--method", "regression",
                 "--out", str(out / "regression.csv")]) == 0
    return out


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_golden_digest(golden_dir, name) -> None:
    digest = hashlib.sha256((golden_dir / name).read_bytes()).hexdigest()
    assert digest == DIGESTS[name]
