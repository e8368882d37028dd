"""Reduced-size runs of every workload, plain and traced, with every check.

    python3 -m pytest benchmark/test_smoke.py -q

Run from the repository root. Each case takes a few seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks      # noqa: E402
import workloads   # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(workload: str, trace: str) -> None:
    done = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stderr
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert {m["name"]: m["unit"] for m in SPEC[kind]} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if workload == "singular-start-n4":
        assert 0 < result["failed"] < result["attempted"]
    else:
        assert result["failed"] == 0


def test_refuses_a_tree_without_the_program(tmp_path: Path) -> None:
    done = _run("--workload", "paper-n40", "--seed", "1", "--seconds", "1",
                cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_series_check_catches_a_wrong_rate() -> None:
    rng = np.random.default_rng(0)
    returns = (rng.standard_normal((40, 3)) @ rng.standard_normal((3, 4))
               * 0.01 + np.array([3e-4, 5e-4, 1e-4, 7e-4]))
    window = 30
    dates = [f"d{i}" for i in range(returns.shape[0] + 1)]
    rows, spectra = [["date", "nu_raw", "nu_eps", "nu_hat", "sigma_pi_raw",
                      "sigma_pi_hat", "kappa_raw", "kappa_eps", "d_min_raw",
                      "d_min_eps", "residual_norm"]], [["date"]]
    for i in range(returns.shape[0] - window + 1):
        x = returns[i:i + window]
        lam, vec = np.linalg.eigh(np.cov(x, rowvar=False))
        mu = x.mean(axis=0)
        sigma = vec[:, :0:-1] * np.sqrt(lam[:0:-1])
        phi = np.column_stack([np.ones(4), -sigma])
        u, d, vt = np.linalg.svd(phi)
        sol = vt.T @ (u.T @ mu / d)
        nu, sp = repr(float(sol[0])), repr(float(np.linalg.norm(sol[1:])))
        kappa, dmin = repr(float(d[0] / d[-1])), repr(float(d[-1]))
        rows.append([dates[window + i], nu, nu, nu, sp, sp, kappa, kappa,
                     dmin, dmin, "0.0"])
        spectra.append([dates[window + i]] + [repr(float(v)) for v in d])

    def run_check(lines):
        checks.check_series(returns, dates, window, checks.parse_rates(lines),
                            spectra, svd_mode="min-only", delta_nu=1e6,
                            epsilon=1e6)

    run_check(rows)
    bad = [list(r) for r in rows]
    bad[5][1] = repr(float(bad[5][1]) * (1 + 1e-6))
    with pytest.raises(checks.CheckFailed):
        run_check(bad)
