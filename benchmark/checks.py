"""Checks of the program's outputs against computations made apart from it.

Every reference here starts from the benchmark's own copy of the prices
and uses numpy directly: ``np.cov`` and ``np.linalg.eigh`` per window for
the rate series, the 1/lambda closed form for the composite minimum-rate
walk, and a small active-set solver for the long-only minimum-variance
portfolio. Nothing is imported from the program.

Tolerances follow the standard forward-error bound for a linear solve: a
value computed from a system with condition number kappa may be off by a
small multiple of kappa * eps relative to the solution's size (Higham,
*Accuracy and Stability of Numerical Algorithms*, ch. 7).
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(np.float64).eps)
# Multiple of kappa * eps allowed for the rate identities.
SOLVE_C = 16.0
# Multiple of eps * (N + tr C) allowed for the Frobenius identity.
FROB_C = 64.0


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _cell(text: str) -> float | None:
    return None if text == "" else float(text)


def parse_rates(lines: list[list[str]]) -> dict[str, list]:
    header, body = lines[0], lines[1:]
    return {name: [row[k] if k == 0 else _cell(row[k]) for row in body]
            for k, name in enumerate(header)}


def failed_dates(rates: dict[str, list]) -> int:
    """Dates whose raw solve gave a rate but whose regularized rate is blank."""
    return sum(raw is not None and hat is None
               for raw, hat in zip(rates["nu_raw"], rates["nu_hat"]))


def _in_band(value: float, previous: float, eps: float) -> bool:
    lo, hi = sorted((previous * (1.0 - eps), previous * (1.0 + eps)))
    return lo <= value <= hi


def check_series(returns: np.ndarray, dates: list[str], window: int,
                 rates: dict[str, list], spectra: list[list[str]], *,
                 svd_mode: str, epsilon: float = 0.005,
                 delta_nu: float = 1e-5) -> dict[str, float]:
    """Check one ``srr`` run window by window.

    ``returns`` are the benchmark's own aligned log returns and ``dates``
    the price dates they sit between (one more than the returns). Returns
    the worst error of each identity as a share of its tolerance.
    """
    total, n = returns.shape
    out_dates = total - window + 1
    _require(len(rates["date"]) == out_dates,
             f"{len(rates['date'])} rate rows, expected {out_dates}")
    _require(len(spectra) == out_dates + 1,
             f"{len(spectra) - 1} singular-value rows, expected {out_dates}")
    _require(rates["date"] == dates[window:],
             "rate rows are not dated by the window end dates")
    _require([row[0] for row in spectra[1:]] == dates[window:],
             "singular-value rows are not dated by the window end dates")

    worst = {"nu_raw": 0.0, "sigma_pi_raw": 0.0, "frobenius": 0.0}
    prev_d = prev_nu = None
    for i in range(out_dates):
        x = returns[i:i + window]
        mu = x.mean(axis=0)
        cov = np.cov(x, rowvar=False)
        lam, vec = np.linalg.eigh(cov)          # ascending
        d = np.array([float(v) for v in spectra[i + 1][1:]])
        _require(d.shape == (n,) and np.all(np.diff(d) <= 0.0) and d[-1] >= 0,
                 f"row {i}: singular values not a non-increasing spectrum")

        frob = n + float(np.trace(cov)) - float(lam[0])
        err = abs(float(d @ d) - frob) / (FROB_C * EPS * frob)
        worst["frobenius"] = max(worst["frobenius"], err)
        _require(err <= 1.0, f"row {i}: sum d_i^2 = {float(d @ d)!r}, "
                             f"N + tr C - lambda_min = {frob!r}")

        kappa = rates["kappa_raw"][i]
        _require(kappa == d[0] / d[-1] if d[-1] > 0 else math.isinf(kappa),
                 f"row {i}: kappa_raw does not match the spectrum")
        _require(rates["d_min_raw"][i] == d[-1],
                 f"row {i}: d_min_raw does not match the spectrum")
        nu_raw, sp_raw = rates["nu_raw"][i], rates["sigma_pi_raw"][i]
        if nu_raw is not None:
            ell = vec[:, 0]
            nu = float(ell @ mu / ell.sum())
            s = (vec[:, 1:].T @ (nu - mu)) / np.sqrt(lam[1:])
            scale = SOLVE_C * kappa * EPS * math.hypot(nu_raw, sp_raw)
            for key, got, want in (("nu_raw", nu_raw, nu),
                                   ("sigma_pi_raw", sp_raw,
                                    float(np.linalg.norm(s)))):
                err = abs(got - want) / scale
                worst[key] = max(worst[key], err)
                _require(err <= 1.0, f"row {i}: {key} = {got!r}, reference "
                                     f"{want!r} (kappa {kappa:g})")

        d_eps = rates["d_min_eps"][i]
        if prev_d is not None:
            # under min-only the smallest clamped value may be an unclamped
            # higher singular value, which moves freely
            _require(_in_band(d_eps, prev_d, epsilon)
                     or (svd_mode == "min-only" and d_eps in d[:-1]),
                     f"row {i}: d_min_eps {d_eps!r} left the band around "
                     f"{prev_d!r}")
        prev_d = d_eps
        nu_hat, nu_eps = rates["nu_hat"][i], rates["nu_eps"][i]
        if nu_hat is not None:
            _require(nu_eps is not None, f"row {i}: nu_hat without nu_eps")
            if prev_nu is None:
                _require(nu_hat == nu_eps, f"row {i}: first nu_hat is not "
                                           f"nu_eps")
            else:
                _require(_in_band(nu_hat, prev_nu, delta_nu)
                         and (nu_hat == nu_eps
                              or not _in_band(nu_eps, prev_nu, delta_nu)),
                         f"row {i}: nu_hat {nu_hat!r} is not nu_eps "
                         f"{nu_eps!r} clamped to the band around {prev_nu!r}")
            prev_nu = nu_hat
    return worst


def check_chain(cli_lines: list[list[str]], chain_cells: list[list[str]]) -> None:
    """The library's backfill-plus-updates rows equal the full run's."""
    _require(len(chain_cells) == len(cli_lines) - 1,
             f"chain gave {len(chain_cells)} rows, the full run "
             f"{len(cli_lines) - 1}")
    for i, (want, got) in enumerate(zip(cli_lines[1:], chain_cells)):
        _require(want == got, f"chain row {i} differs from the full run: "
                              f"{got} vs {want}")


# ---------------------------------------------------------------------------
# min-rate
# ---------------------------------------------------------------------------

def _min_variance_long_only(cov: np.ndarray) -> np.ndarray:
    """Primal active-set solve of min w'Cw, sum w = 1, w >= 0
    (Nocedal & Wright, Numerical Optimization, algorithm 16.3)."""
    n = cov.shape[0]
    w = np.full(n, 1.0 / n)
    free = np.ones(n, dtype=bool)
    for _ in range(50 * n):
        idx = np.flatnonzero(free)
        k = idx.size
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = 2.0 * cov[np.ix_(idx, idx)]
        kkt[:k, k] = kkt[k, :k] = 1.0
        target = np.linalg.solve(kkt, np.r_[np.zeros(k), 1.0])[:k]
        step = target - w[idx]
        if np.max(np.abs(step)) > 1e-15:
            shrink = step < 0.0
            ratios = np.where(shrink, w[idx] / np.where(shrink, -step, 1.0),
                              np.inf)
            j = int(np.argmin(ratios))
            if ratios[j] < 1.0:
                w[idx] += ratios[j] * step
                w[idx[j]] = 0.0
                free[idx[j]] = False
                continue
            w[idx] = target
        g = 2.0 * cov @ w
        lagrange = float(np.mean(g[free]))
        slack = np.where(free, np.inf, g - lagrange)
        j = int(np.argmin(slack))
        if slack[j] >= -1e-14 * max(abs(lagrange), 1e-300):
            return w
        free[j] = True
    raise CheckFailed("reference active-set solve did not converge")


def check_min_rate(returns: np.ndarray, stdout: str, k0: int = 2) -> None:
    """``min-rate`` output against the 1/lambda closed form over composite
    blocks and a long-only minimum-variance reference."""
    fields = dict(line.split("=", 1) for line in stdout.split())
    j_star = int(fields["j_star"])
    weights = np.array([float(v) for v in fields["weights"].split(",")])
    m, n = returns.shape
    means = returns.mean(axis=0)
    x0 = returns - means
    cov = x0.T @ x0 / (m - 1)
    lam, vec = np.linalg.eigh(cov)
    lam, vec = lam[::-1], vec[:, ::-1]
    # composites are signed so that their largest-magnitude weight is positive
    vec = vec * np.where(vec[np.argmax(np.abs(vec), axis=0),
                             np.arange(n)] < 0.0, -1.0, 1.0)
    comp_means = vec.T @ means
    top = float(lam[0])
    _require(k0 <= j_star <= n and weights.shape == (j_star,),
             f"j_star {j_star} with {weights.size} weights for {n} assets")

    def block(j: int) -> tuple[np.ndarray, float, float]:
        inv = 1.0 / lam[:j]
        q = inv / inv.sum()
        return q, float(q @ comp_means[:j]), float(np.sqrt(1.0 / inv.sum()))

    # near-zero eigenvalues make the decisions below fragile; a decision the
    # reference cannot make to within these margins is not held against it
    r_tol = 1e-8 * float(np.max(np.abs(comp_means)))
    s_tol = 1e-6 * math.sqrt(top)
    reason = fields["stop_reason"]
    last = j_star - 1 if reason == "tolerance-breach" else j_star
    for j in range(k0, last):
        _, r0, s0 = block(j)
        _, r1, s1 = block(j + 1)
        _require(r1 - r0 <= r_tol and s1 - s0 <= s_tol,
                 f"the walk went past block {j}, which the reference "
                 f"stops at")
    if reason == "zero-variance":
        _require(j_star < n and lam[j_star] <= 1e-12 * top,
                 f"zero-variance stop at {j_star}, but lambda = "
                 f"{lam[j_star]!r}")
    elif reason == "exhausted":
        _require(j_star == n, f"exhausted at {j_star} of {n}")
    else:
        _require(reason == "tolerance-breach", f"stop reason {reason!r}")
        _, r0, s0 = block(j_star - 1)
        _, r1, s1 = block(j_star)
        _require(r1 - r0 > -r_tol or s1 - s0 > -s_tol,
                 f"breach at block {j_star} that the reference does not see")
    q, r, s = block(j_star)
    _require(np.max(np.abs(weights - q)) <= 1e-9,
             f"weights {weights} differ from 1/lambda {q}")
    _require(abs(float(fields["r"]) - r) <= r_tol,
             f"r {fields['r']} differs from the closed form {r!r}")
    _require(abs(float(fields["sigma_r"]) - s) <= s_tol,
             f"sigma_r {fields['sigma_r']} differs from the closed form {s!r}")

    w = _min_variance_long_only(cov)
    g = cov @ w
    support = w > 0.0
    lagrange = float(np.min(g))
    _require(abs(w.sum() - 1.0) <= 1e-12 and np.all(w >= 0.0)
             and float(np.max(g[support])) - lagrange <= 1e-9 * float(np.max(np.abs(g))),
             "reference long-only portfolio fails its own KKT conditions")
    variance = max(float(w @ g), 0.0)
    _require(abs(float(fields["full_sigma_r"]) - math.sqrt(variance)) <= s_tol,
             f"full_sigma_r {fields['full_sigma_r']} differs from the "
             f"long-only minimum {math.sqrt(variance)!r}")
    _require(abs(float(fields["full_r"]) - float(w @ means))
             <= 1e-6 * float(np.max(np.abs(means))),
             f"full_r {fields['full_r']} differs from the long-only "
             f"minimum's {float(w @ means)!r}")
