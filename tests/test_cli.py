"""End-to-end command-line tests driven through ``main``."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shadowrate
from shadowrate import blas, cli
from shadowrate.cli import main
from shadowrate.market_data import (PricePanel, UniverseEntry,
                                    select_assets, write_prices)
from shadowrate.pipeline import ROW_FIELDS
from shadowrate.synthetic import GbmSpec, simulate_gbm

from helpers import MIXED_DATE_KINDS, read_rows_csv


BLAS_BUILD = np.show_config(mode="dicts")["Build Dependencies"]["blas"]


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _simulate(tmp_path, name="prices.csv", n=2, steps=60, seed=7,
              extra=()) -> object:
    out = tmp_path / name
    code = main(["simulate", "--n", str(n), "--steps", str(steps),
                 "--seed", str(seed), "--out", str(out), *extra])
    assert code == 0
    return out


def test_simulate_is_deterministic_and_manifested(tmp_path, capsys) -> None:
    a = _simulate(tmp_path, "a.csv", seed=11)
    b = _simulate(tmp_path, "b.csv", seed=11)
    c = _simulate(tmp_path, "c.csv", seed=12)
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()

    manifest = json.loads((tmp_path / "a.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 11
    assert manifest["generator"] == "philox"
    assert manifest["output"]["algorithm"] == "sha256"
    assert manifest["output"]["digest"] == _sha256(a)
    assert manifest["config"]["n"] == 2
    assert manifest["config"]["steps"] == 60

    header = a.read_text().splitlines()[0]
    assert header == "date,A1,A2"
    first = a.read_text().splitlines()[1]
    assert first.startswith("2000-01-03,")


def test_simulate_explicit_parameters_round_trip(tmp_path, capsys) -> None:
    out = _simulate(tmp_path, "explicit.csv", n=3, steps=10, seed=5,
                    extra=("--mu", "1e-4,2e-4,3e-4",
                           "--sigma", "0.01,0.0;0.0,0.01;0.005,0.005",
                           "--s0", "50,60,70"))
    capsys.readouterr()
    manifest = json.loads((tmp_path / "explicit.manifest.json").read_text())
    assert manifest["config"]["mu"] == [1e-4, 2e-4, 3e-4]
    assert manifest["config"]["sigma"][2] == [0.005, 0.005]
    assert manifest["config"]["s0"] == [50.0, 60.0, 70.0]
    lines = out.read_text().splitlines()
    assert lines[1].split(",")[1:] == ["50.0", "60.0", "70.0"]


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_simulate_rejects_fewer_than_two_assets(tmp_path, capsys, n) -> None:
    out = tmp_path / "few.csv"
    assert main(["simulate", "--n", str(n), "--steps", "10", "--seed", "1",
                 "--out", str(out)]) == 2
    assert f"error: need at least 2 assets, got {n}\n" == \
        capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_malformed_parameters(tmp_path, capsys) -> None:
    out = tmp_path / "bad.csv"
    assert main(["simulate", "--steps", "10", "--seed", "1",
                 "--mu", "1e-4", "--out", str(out)]) == 1  # wrong length
    assert main(["simulate", "--steps", "10", "--seed", "1",
                 "--mu", "a,b", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "expected 2 values" in err
    assert "comma-separated numbers" in err


def test_srr_end_to_end_with_manifest(tmp_path, capsys) -> None:
    prices = _simulate(tmp_path, steps=60, seed=7)
    out = tmp_path / "rates.csv"
    code = main(["srr", "--prices", str(prices), "--window", "30",
                 "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "wrote 30 rows" in stdout

    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(ROW_FIELDS)
    assert len(lines) == 31  # 59 return rows, window 30
    rows = read_rows_csv(out)
    assert all(row.nu_raw is not None for row in rows)

    singular = tmp_path / "rates.singular-values.csv"
    assert singular.is_file()
    assert singular.read_text().splitlines()[0] == "date,d_1,d_2"

    manifest = json.loads((tmp_path / "rates.manifest.json").read_text())
    assert manifest["command"] == "srr"
    assert manifest["tool"] == "shadowrate"
    assert manifest["config"] == {
        "window_m": 30,
        "method": "direct",
        "epsilon": 0.005,
        "delta_nu": 1e-5,
        "delta_sigma": 1e-3,
        "svd_mode": "min-only",
        "layout": "wide",
        "align": "intersect-dates",
    }
    assert manifest["input"]["algorithm"] == "sha256"
    assert manifest["input"]["digest"] == _sha256(prices)


def _manifest(path) -> dict:
    """A manifest's contents, checked to be written in its canonical form."""
    text = path.read_text(encoding="utf-8")
    manifest = json.loads(text)
    assert text == json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    return manifest


def test_srr_manifest_pins_every_key(tmp_path, capsys) -> None:
    prices = _simulate(tmp_path, n=3, steps=50, seed=9)
    out = tmp_path / "rates.csv"
    assert main(["srr", "--prices", str(prices), "--window", "25",
                 "--method", "regression", "--delta-nu", "2e-5",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    singular = tmp_path / "rates.singular-values.csv"
    assert _manifest(tmp_path / "rates.manifest.json") == {
        "tool": "shadowrate",
        "version": shadowrate.__version__,
        "command": "srr",
        "config": {"window_m": 25, "method": "regression", "epsilon": 0.005,
                   "delta_nu": 2e-5, "delta_sigma": 1e-3, "svd_mode": "all",
                   "layout": "wide", "align": "intersect-dates"},
        "input": {"path": str(prices), "algorithm": "sha256",
                  "digest": _sha256(prices)},
        "outputs": [{"path": str(path), "algorithm": "sha256",
                     "digest": _sha256(path)}
                    for path in (out, singular)],
        "counts": {"dates": 25, "raw_singular_dates": 0,
                   "blank_nu_hat_dates": 0},
        "runtime": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": {"name": BLAS_BUILD.get("name"),
                     "version": BLAS_BUILD.get("version"),
                     # the command runs at one BLAS thread, if it can set it
                     "threads": None if blas.threads() is None else 1,
                     "core": blas.describe()["core"]},
            # the regression route runs serially
            "engine_workers": 1,
        },
    }


def test_srr_manifest_counts_the_blank_dates(tmp_path, capsys) -> None:
    # the third asset copies the first for 40 dates, so early windows are
    # singular
    rng = np.random.default_rng(3)
    log_prices = np.cumsum(0.01 * rng.standard_normal((80, 3)), axis=0)
    log_prices[:40, 2] = log_prices[:40, 0]
    prices = tmp_path / "prices.csv"
    write_prices(PricePanel(tuple(range(80)), ("A", "B", "C"),
                            100.0 * np.exp(log_prices)), prices)
    out = tmp_path / "rates.csv"
    assert main(["srr", "--prices", str(prices), "--window", "25",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    rows = read_rows_csv(out)
    counts = _manifest(tmp_path / "rates.manifest.json")["counts"]
    assert counts == {
        "dates": len(rows),
        "raw_singular_dates": sum(row.nu_raw is None for row in rows),
        "blank_nu_hat_dates": sum(row.nu_hat is None for row in rows)}
    assert counts["raw_singular_dates"] > 0


def _collinear_prices(tmp_path, rows: int) -> Path:
    """The seed-5 five-asset ``simulate`` panel of 3,000 dates, its fifth
    asset a copy of the first on the first ``rows`` dates."""
    mu, sigma, s0 = cli._default_parameters(5)
    prices, _ = simulate_gbm(GbmSpec(mu=mu, sigma=sigma, s0=s0, steps=3000,
                                     seed=5))
    values = prices.prices.copy()
    values[:rows, 4] = values[:rows, 0]
    path = tmp_path / "prices.csv"
    write_prices(dataclasses.replace(prices, prices=values), path)
    return path


@pytest.mark.parametrize("rows", [3000, 1500])
def test_srr_warns_when_most_of_nu_hat_is_blank(tmp_path, capsys,
                                                rows) -> None:
    # the spectrum clamp seeds near 1e-18 on the singular first windows, so
    # nu_hat stays blank on most dates, also on those of the second input
    # that have a nu_raw: on all 2,500 under the SkylakeX kernel, on 2,490
    # of the second input's under Haswell
    out = tmp_path / "rates.csv"
    assert main(["srr", "--prices", str(_collinear_prices(tmp_path, rows)),
                 "--window", "500", "--out", str(out)]) == 0
    rows_out = read_rows_csv(out)
    blank = [row.date for row in rows_out if row.nu_hat is None]
    assert len(rows_out) == 2500 and len(blank) > 1250 and blank[0] == 500
    assert capsys.readouterr().err == (
        f"warning: nu_hat is blank on {len(blank)} of 2500 dates, "
        f"from {blank[0]} to {blank[-1]}\n")


def test_srr_does_not_warn_on_a_clean_panel(tmp_path, capsys) -> None:
    out = tmp_path / "rates.csv"
    assert main(["srr", "--prices", str(_collinear_prices(tmp_path, 0)),
                 "--window", "500", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert _manifest(tmp_path / "rates.manifest.json")["counts"][
        "blank_nu_hat_dates"] == 0


def test_main_runs_one_blas_thread_and_restores_the_callers(
        tmp_path, capsys, monkeypatch, blas_at_two) -> None:
    prices = _simulate(tmp_path, n=3, steps=50, seed=9)
    assert blas.threads() == 2
    seen = []
    engine = cli.run_srr_series

    def recorded(*args, **kwargs):
        seen.append(blas.threads())
        return engine(*args, **kwargs)

    monkeypatch.setattr(cli, "run_srr_series", recorded)
    out = tmp_path / "rates.csv"
    assert main(["srr", "--prices", str(prices), "--window", "25",
                 "--out", str(out)]) == 0
    assert seen == [1]
    assert blas.threads() == 2
    assert main(["srr", "--prices", str(tmp_path / "missing.csv"),
                 "--out", str(out)]) == 1
    assert blas.threads() == 2
    capsys.readouterr()


def _srr_at_blas_threads(tmp_path, prices, *flags) -> list[tuple]:
    """``srr`` on ``prices`` in a subprocess at 1 and at 2 OpenBLAS threads:
    per run, the two CSVs' bytes, the manifest's BLAS threads and engine
    workers."""
    src = str(Path(shadowrate.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"rates-{threads}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "shadowrate", "srr", "--prices",
             str(prices), *flags, "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runtime = _manifest(out.with_suffix(".manifest.json"))["runtime"]
        outputs.append((out.read_bytes(),
                        out.with_suffix(".singular-values.csv").read_bytes(),
                        runtime["blas"]["threads"], runtime["engine_workers"]))
    return outputs


def test_srr_bytes_do_not_depend_on_blas_threads(tmp_path, capsys) -> None:
    # 12 assets: chunks of 56 dates, so the 171 dates run on the pool
    prices = _simulate(tmp_path, n=12, steps=201, seed=13)
    capsys.readouterr()
    outputs = _srr_at_blas_threads(tmp_path, prices, "--window", "30")
    assert outputs[0] == outputs[1]
    if outputs[0][2] == 1:
        assert outputs[0][3] == min(len(os.sched_getaffinity(0)), 4)


def test_srr_regression_bytes_do_not_depend_on_blas_threads(
        tmp_path, capsys) -> None:
    # At N=40, M=1500 the regression route's per-window lstsq rounds
    # differently at 1 and 2 BLAS threads (a library run's bytes differ),
    # so the bytes agree only because the CLI holds the BLAS at one thread.
    prices = _simulate(tmp_path, n=40, steps=1522, seed=5)
    capsys.readouterr()
    outputs = _srr_at_blas_threads(tmp_path, prices, "--method", "regression",
                                   "--window", "1500")
    assert outputs[0][:2] == outputs[1][:2]


def test_srr_manifest_records_the_blas_kernel(tmp_path, capsys) -> None:
    # OPENBLAS_CORETYPE forces a kernel for one process; Haswell (AVX2)
    # runs on any CPU that runs the native kernels of this build's wheels
    if blas.threads() is None:
        pytest.skip("numpy's BLAS is not the bundled OpenBLAS")
    prices = _simulate(tmp_path, n=3, steps=50, seed=9)
    capsys.readouterr()
    src = str(Path(shadowrate.__file__).resolve().parents[1])
    out = tmp_path / "rates.csv"
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "shadowrate", "srr", "--prices", str(prices),
         "--window", "25", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    runtime = _manifest(out.with_suffix(".manifest.json"))["runtime"]
    assert runtime["blas"]["core"] == "Haswell"


def test_simulate_manifest_pins_every_key(tmp_path, capsys) -> None:
    out = _simulate(tmp_path, "sim.csv", n=3, steps=10, seed=5,
                    extra=("--mu", "1e-4,2e-4,3e-4",
                           "--sigma", "0.01,0.0;0.0,0.01;0.005,0.005",
                           "--s0", "50,60,70"))
    capsys.readouterr()
    assert _manifest(tmp_path / "sim.manifest.json") == {
        "tool": "shadowrate",
        "version": shadowrate.__version__,
        "command": "simulate",
        "config": {"n": 3, "steps": 10, "mu": [1e-4, 2e-4, 3e-4],
                   "sigma": [[0.01, 0.0], [0.0, 0.01], [0.005, 0.005]],
                   "s0": [50.0, 60.0, 70.0], "base_date": "2000-01-03"},
        "seed": 5,
        "generator": "philox",
        "output": {"path": str(out), "algorithm": "sha256",
                   "digest": _sha256(out)},
    }


def test_srr_regression_resolves_svd_mode_all(tmp_path, capsys) -> None:
    prices = _simulate(tmp_path, n=3, steps=40, seed=21)
    out = tmp_path / "reg.csv"
    assert main(["srr", "--prices", str(prices), "--window", "20",
                 "--method", "regression", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "reg.manifest.json").read_text())
    assert manifest["config"]["svd_mode"] == "all"

    out2 = tmp_path / "reg2.csv"
    assert main(["srr", "--prices", str(prices), "--window", "20",
                 "--method", "regression", "--svd-mode", "min",
                 "--out", str(out2)]) == 0
    manifest2 = json.loads((tmp_path / "reg2.manifest.json").read_text())
    assert manifest2["config"]["svd_mode"] == "min-only"
    capsys.readouterr()


def test_srr_exit_codes(tmp_path, capsys) -> None:
    missing = tmp_path / "nope.csv"
    out = tmp_path / "x.csv"
    assert main(["srr", "--prices", str(missing), "--out", str(out)]) == 1

    prices = _simulate(tmp_path, steps=60, seed=9)
    # window not exceeding the asset count is a configuration error
    assert main(["srr", "--prices", str(prices), "--window", "2",
                 "--out", str(out)]) == 2
    assert main(["srr", "--prices", str(prices), "--window", "30",
                 "--epsilon", "0", "--out", str(out)]) == 2
    # too little history for the default window
    assert main(["srr", "--prices", str(prices), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 4


@pytest.mark.parametrize("layout", ["wide", "long"])
def test_srr_rejects_mixed_date_kinds(tmp_path, capsys, layout) -> None:
    prices = tmp_path / "mixed.csv"
    prices.write_text(MIXED_DATE_KINDS[layout])
    code = main(["srr", "--prices", str(prices), "--layout", layout,
                 "--align", "error-on-gap", "--window", "2",
                 "--out", str(tmp_path / "out.csv")])
    assert code == 1
    assert "mixed calendar and integer dates" in capsys.readouterr().err


def test_stats_summarizes_a_column(tmp_path, capsys) -> None:
    prices = _simulate(tmp_path, steps=60, seed=7)
    out = tmp_path / "rates.csv"
    main(["srr", "--prices", str(prices), "--window", "30", "--out", str(out)])
    capsys.readouterr()

    assert main(["stats", "--input", str(out), "--column", "nu_hat"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "column,count,mean,min,p25,p50,p75,max"
    fields = lines[1].split(",")
    assert fields[0] == "nu_hat"
    assert int(fields[1]) == 30
    lo, hi = float(fields[3]), float(fields[7])
    assert lo <= float(fields[4]) <= float(fields[5]) <= float(fields[6]) <= hi

    assert main(["stats", "--input", str(out), "--column", "bogus"]) == 1
    assert "no column named" in capsys.readouterr().err


def test_stats_summarizes_a_column_holding_inf(tmp_path, capsys) -> None:
    # srr writes inf in kappa_raw at a date whose smallest singular value
    # is 0
    out = tmp_path / "rates.csv"
    out.write_text("date,kappa_raw\n1,1.0\n2,inf\n3,2.0\n")
    assert main(["stats", "--input", str(out), "--column", "kappa_raw"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == \
        "kappa_raw,3,inf,1.0,1.5,2.0,inf,inf"


@pytest.mark.parametrize("bad_row", ["2000-03-01,1e-4",
                                     "2000-03-01" + ",1e-4" * 11,
                                     "2000-03-01,1e-4,1e-4,oops" + ",1e-4" * 7],
                         ids=["too-few-cells", "too-many-cells", "non-numeric"])
def test_stats_rejects_malformed_rows_with_line_number(tmp_path, capsys,
                                                       bad_row) -> None:
    prices = _simulate(tmp_path, steps=60, seed=7)
    out = tmp_path / "rates.csv"
    main(["srr", "--prices", str(prices), "--window", "30", "--out", str(out)])
    lines = out.read_text().splitlines()
    lines.insert(3, bad_row)  # becomes line 4 of the file
    out.write_text("\n".join(lines) + "\n")
    capsys.readouterr()

    assert main(["stats", "--input", str(out), "--column", "nu_hat"]) == 1
    assert "line 4" in capsys.readouterr().err


def test_select_prints_even_spread(tmp_path, capsys) -> None:
    universe = tmp_path / "universe.csv"
    rows = ["asset_id,market_cap"]
    rows += [f"X{i:02d},{1000 - 10 * i}" for i in range(10)]
    universe.write_text("\n".join(rows) + "\n")
    assert main(["select", "--universe", str(universe), "--n", "4"]) == 0
    printed = capsys.readouterr().out.split()
    entries = [UniverseEntry(f"X{i:02d}", 1000.0 - 10 * i) for i in range(10)]
    expected = [e.asset_id for e in select_assets(entries, 4)]
    assert printed == expected


def test_min_rate_reports_both_searches(tmp_path, capsys) -> None:
    prices = _simulate(tmp_path, n=4, steps=200, seed=31)
    capsys.readouterr()
    assert main(["min-rate", "--prices", str(prices), "--k0", "2"]) == 0
    out = dict(line.split("=", 1) for line in
               capsys.readouterr().out.splitlines())
    assert set(out) == {"j_star", "r", "sigma_r", "stop_reason", "weights",
                        "full_r", "full_sigma_r"}
    assert out["stop_reason"] in ("tolerance-breach", "zero-variance",
                                  "exhausted")
    weights = [float(tok) for tok in out["weights"].split(",")]
    assert len(weights) == int(out["j_star"])
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)
    assert float(out["sigma_r"]) > 0.0
    assert float(out["full_sigma_r"]) > 0.0


@pytest.mark.parametrize("flag", ["--tol-sigma", "--tol-r"])
def test_min_rate_rejects_a_nan_tolerance(tmp_path, capsys, flag) -> None:
    prices = _simulate(tmp_path, n=4, steps=200, seed=31)
    capsys.readouterr()
    name = flag[2:].replace("-", "_")
    assert main(["min-rate", "--prices", str(prices), "--k0", "2",
                 flag, "nan"]) == 2
    assert capsys.readouterr().err == f"error: {name} must not be NaN\n"
    for value in ("inf", "-1"):
        assert main(["min-rate", "--prices", str(prices), "--k0", "2",
                     flag, value]) == 0
        assert "stop_reason=" in capsys.readouterr().out


def test_min_rate_rejects_an_empty_asset_id(tmp_path, capsys) -> None:
    # a return panel applies the price panel's id rule
    cells = 0.01 * np.random.default_rng(17).standard_normal((40, 3))
    returns = tmp_path / "returns.csv"
    returns.write_text("date,,A2,A3\n" + "".join(
        f"{m},{','.join(map(repr, row))}\n"
        for m, row in enumerate(cells.tolist())))
    assert main(["min-rate", "--returns", str(returns)]) == 1
    assert capsys.readouterr().err == ("error: duplicate or empty asset ids "
                                       "in return panel\n")


def test_min_rate_names_a_non_finite_return_cell(tmp_path, capsys) -> None:
    cells = 0.01 * np.random.default_rng(17).standard_normal((40, 3))
    cells[30, 1] = np.nan
    returns = tmp_path / "returns.csv"
    returns.write_text("date,A1,A2,A3\n" + "".join(
        f"{m},{','.join(map(repr, row))}\n"
        for m, row in enumerate(cells.tolist())))
    assert main(["min-rate", "--returns", str(returns)]) == 1
    assert capsys.readouterr().err == ("error: line 32: non-finite return "
                                       "cell 'nan' for asset 'A2'\n")


def test_min_rate_requires_exactly_one_input(tmp_path) -> None:
    prices = _simulate(tmp_path, steps=20, seed=3)
    with pytest.raises(SystemExit):
        main(["min-rate", "--prices", str(prices), "--returns", str(prices)])
    with pytest.raises(SystemExit):
        main(["min-rate"])


def test_python_dash_m_runs_the_cli() -> None:
    src = str(Path(shadowrate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "shadowrate", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == f"shadowrate {shadowrate.__version__}\n"


def test_version_flag_and_console_script(capsys) -> None:
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("shadowrate ")

    exe = shutil.which("shadowrate")
    assert exe is not None, "console script not installed"
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("shadowrate ")
