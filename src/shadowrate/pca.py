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


def covariance(x0: np.ndarray) -> np.ndarray:
    """Sample covariance ``x0' x0 / (M - 1)`` of a centered M x N panel, or
    of each panel of a (K, M, N) stack."""
    return (x0.swapaxes(-1, -2) @ x0) / (x0.shape[-2] - 1)


def eigenpairs(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending, clipped at zero) and sign-normalized
    eigenvector columns of a stack of covariance matrices ``cov`` (K, N, N),
    from one stacked ``eigh``; returns arrays (K, N) and (K, N, N).

    Raises for the first matrix whose smallest eigenvalue is negative beyond
    the clip tolerance.
    """
    lam, w = np.linalg.eigh(cov)
    lam = lam[:, ::-1].copy()
    w = w[:, :, ::-1].copy()

    if (lam[:, -1] < 0.0).any():
        low = lam[:, -1] < -1e-12 * np.maximum(1.0, lam[:, 0])
        if low.any():
            raise ValueError(f"covariance eigenvalue {lam[low, -1][0]:g} is "
                             f"negative beyond the clip tolerance")
    lam.clip(0.0, None, out=lam)

    # argmax takes the lowest index on ties
    k, n = lam.shape
    peak = w[np.arange(k)[:, None], np.argmax(np.abs(w), axis=1), np.arange(n)]
    w *= np.where(peak < 0.0, -1.0, 1.0)[:, None, :]
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

    lam, w = eigenpairs(covariance(x0)[None])
    lam, w = lam[0], w[0]
    components = x0 @ w
    if column_means is None:
        column_means = np.zeros(n)
    else:
        column_means = np.asarray(column_means, dtype=np.float64)
        if column_means.shape != (n,):
            raise ValueError(f"column_means shape {column_means.shape} does not "
                             f"match {n} columns")
    return PcaResult(lam, w, components, column_means)
