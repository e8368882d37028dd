"""Golden CLI run: ``simulate`` then ``srr`` on both calibration routes with
fixed seeds, pinned by the SHA-256 digests of every output CSV.

The digests were recorded with numpy's bundled OpenBLAS on x86-64, one set
per compute kernel, since another kernel legitimately rounds the last bits
differently: ``SkylakeX`` natively on an AVX-512 CPU, ``Haswell`` under
``OPENBLAS_CORETYPE=Haswell`` (the price file is the same under both). The
test picks the set of the kernel the process runs and fails, naming the
kernel, where none was recorded. Changes that are meant to keep every output
bit (refactors, speed-ups) must leave the digests as they are; a change that
alters output bits on purpose updates them and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from shadowrate import blas
from shadowrate.cli import main

PRICES = "1c3ff988f53159632ae6f2d658b622e0eb7c410a82d3061cf3c9be4bd39126e5"
DIGESTS = {
    "SkylakeX": {
        "prices.csv": PRICES,
        "direct.csv":
            "cef0a6424473c613ff131dc78601f8f2cb478ae37d6a008addd50672526eeee6",
        "direct.singular-values.csv":
            "e1234ee612195b03cb51b5797ae9ad12ca6169703677c65f92c7dcff0c98cbd0",
        "regression.csv":
            "7df2fec659972fed33ce4fd8795892d4c5321a52e57bf5f788ed92e59a70cdcb",
        "regression.singular-values.csv":
            "f693c8a7c92de3c2e77ac3933af3ba74e0ea4f6b78997fe1392a7c39276e31d4",
    },
    "Haswell": {
        "prices.csv": PRICES,
        "direct.csv":
            "0183d2bd2bcdcabc374d0b2a47a9301af15f10c3845d5a423765693d42f4c3af",
        "direct.singular-values.csv":
            "c859349351e55baca36c2b1bc1bb0aad7cbc4d17372acddb2d4bdb825af123d6",
        "regression.csv":
            "04266d327b0a41571d40950b1624dbb8b03e1210897846a67bac42d1d8a7b13c",
        "regression.singular-values.csv":
            "7f35632ee3fdbff1cbfd8532c30605af18b38054a1b00044cd21967fd0d64cb5",
    },
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


@pytest.mark.parametrize("name", sorted(DIGESTS["SkylakeX"]))
def test_golden_digest(golden_dir, name) -> None:
    core = blas.describe()["core"]
    assert core in DIGESTS, (f"no golden digests recorded for the BLAS "
                             f"kernel {core!r}")
    digest = hashlib.sha256((golden_dir / name).read_bytes()).hexdigest()
    assert digest == DIGESTS[core][name]
