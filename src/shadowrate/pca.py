"""Principal component analysis of centered return panels.

Eigenpairs come from the symmetric eigendecomposition of the sample
covariance ``C = x0' x0 / (M - 1)`` and are reported in non-increasing
eigenvalue order. Eigenvector signs follow a fixed convention so results are
reproducible across runs and LAPACK builds: each column is flipped so that
its largest-absolute-value component is positive (ties broken by the lowest
index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PcaResult:
    """Eigenvalues (descending), orthonormal eigenvector columns, component
    scores ``P = x0 W``, and the column means removed before analysis."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    components: np.ndarray
    column_means: np.ndarray


def center_columns(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Remove column means; returns (centered panel, means)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-d panel, got shape {x.shape}")
    m, _ = x.shape
    if m < 2:
        raise ValueError(f"need at least 2 rows to center, got {m}")
    if not np.all(np.isfinite(x)):
        raise ValueError("panel contains non-finite values")
    means = x.mean(axis=0)
    return x - means, means


def _eigenpairs(x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending, clipped at zero) and sign-normalized
    eigenvectors of ``x0' x0 / (M - 1)``; ``x0`` is trusted to be a
    centered, finite 2-d panel with ``M >= 2``."""
    cov = (x0.T @ x0) / (x0.shape[0] - 1)
    lam, w = np.linalg.eigh(cov)
    lam = lam[::-1].copy()
    w = w[:, ::-1].copy()

    floor = -1e-12 * max(1.0, float(lam[0]) if lam.size else 1.0)
    if lam.size and float(lam[-1]) < floor:
        raise ValueError(f"covariance eigenvalue {lam[-1]:g} is negative beyond "
                         f"the clip tolerance")
    np.clip(lam, 0.0, None, out=lam)

    # argmax takes the lowest index on ties
    peak = w[np.argmax(np.abs(w), axis=0), np.arange(w.shape[1])]
    w *= np.where(peak < 0.0, -1.0, 1.0)
    return lam, w


def pca(x0: np.ndarray, column_means: np.ndarray | None = None) -> PcaResult:
    """Diagonalize the sample covariance (divisor M-1) of an
    already-centered panel.

    Tiny negative eigenvalues from floating-point noise are clipped to zero;
    anything materially negative raises.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 2:
        raise ValueError(f"expected a 2-d panel, got shape {x0.shape}")
    m, n = x0.shape
    if m < 2:
        raise ValueError(f"need at least 2 rows, got {m}")
    if not np.all(np.isfinite(x0)):
        raise ValueError("panel contains non-finite values")
    scale = max(1.0, float(np.max(np.abs(x0))) if x0.size else 1.0)
    max_mean = float(np.max(np.abs(x0.mean(axis=0))))
    if max_mean > 1e-8 * scale:
        raise ValueError(f"panel is not column-centered (max |mean| = {max_mean:g})")

    lam, w = _eigenpairs(x0)
    components = x0 @ w
    if column_means is None:
        column_means = np.zeros(n)
    else:
        column_means = np.asarray(column_means, dtype=np.float64)
        if column_means.shape != (n,):
            raise ValueError(f"column_means shape {column_means.shape} does not "
                             f"match {n} columns")
    return PcaResult(lam, w, components, column_means)
