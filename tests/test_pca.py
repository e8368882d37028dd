"""PCA invariants: orthonormality, ordering, reconstruction, conventions."""

from __future__ import annotations

import numpy as np
import pytest

from shadowrate.pca import center_columns, pca


def _panel(m: int, n: int, seed: int, rank: int | None = None) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if rank is None:
        x = 0.02 * rng.standard_normal((m, n))
    else:
        x = 0.02 * rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    return x + 3e-4 * rng.standard_normal(n)


def test_center_columns_zero_means() -> None:
    x = _panel(200, 5, seed=1)
    x0, means = center_columns(x)
    np.testing.assert_allclose(means, x.mean(axis=0))
    assert np.max(np.abs(x0.sum(axis=0))) <= 1e-12 * 200 * np.max(np.abs(x))


def test_center_columns_rejects_short_or_nonfinite() -> None:
    with pytest.raises(ValueError):
        center_columns(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        center_columns(np.array([[1.0, np.inf], [0.0, 0.0]]))


def test_pca_requires_centered_input() -> None:
    x = _panel(100, 4, seed=2) + 1.0
    with pytest.raises(ValueError, match="not column-centered"):
        pca(x)


def test_eigenvector_orthonormality_and_ordering() -> None:
    x0, _ = center_columns(_panel(300, 8, seed=3))
    result = pca(x0)
    w = result.eigenvectors
    np.testing.assert_allclose(w.T @ w, np.eye(8), atol=1e-12)
    lam = result.eigenvalues
    assert np.all(lam[:-1] >= lam[1:])
    assert np.all(lam >= 0.0)


def test_component_scores_and_variances() -> None:
    x0, _ = center_columns(_panel(400, 6, seed=4))
    result = pca(x0)
    p = result.components
    np.testing.assert_allclose(p, x0 @ result.eigenvectors)
    # PC columns are uncorrelated with variance lambda_j (same divisor).
    cross = p.T @ p / (400 - 1)
    np.testing.assert_allclose(np.diag(cross), result.eigenvalues, rtol=1e-10)
    off = cross - np.diag(np.diag(cross))
    assert np.max(np.abs(off)) <= 1e-12 * result.eigenvalues[0] * 400


def test_covariance_reconstruction_and_trace() -> None:
    x0, _ = center_columns(_panel(250, 7, seed=5))
    result = pca(x0)
    cov = x0.T @ x0 / (250 - 1)
    rebuilt = result.eigenvectors @ np.diag(result.eigenvalues) @ \
        result.eigenvectors.T
    assert np.max(np.abs(rebuilt - cov)) <= 1e-10
    assert result.eigenvalues.sum() == pytest.approx(np.trace(cov), abs=1e-12)


def test_sign_convention_largest_component_positive() -> None:
    x0, _ = center_columns(_panel(500, 5, seed=7))
    w = pca(x0).eigenvectors
    for j in range(w.shape[1]):
        k = int(np.argmax(np.abs(w[:, j])))
        assert w[k, j] > 0.0


def test_sign_convention_tie_breaks_to_lowest_index() -> None:
    # Perfectly anti-correlated pair: eigenvectors are (1,-1)/sqrt(2) and
    # (1,1)/sqrt(2) with equal-magnitude components; the first component
    # must be made positive.
    base = np.array([1.0, -1.0, 2.0, -2.0])
    x0 = np.column_stack([base, -base])
    result = pca(x0)
    assert result.eigenvectors[0, 0] > 0.0
    assert result.eigenvectors[0, 1] > 0.0
    assert result.eigenvalues[1] == pytest.approx(0.0, abs=1e-15)


def test_duplicated_column_gives_zero_smallest_eigenvalue() -> None:
    rng = np.random.default_rng(8)
    col = 0.02 * rng.standard_normal(300)
    x0, _ = center_columns(np.column_stack([col, col,
                                            0.01 * rng.standard_normal(300)]))
    lam = pca(x0).eigenvalues
    assert lam[-1] == pytest.approx(0.0, abs=1e-12)


def test_row_permutation_leaves_eigenstructure_unchanged() -> None:
    x0, _ = center_columns(_panel(200, 4, seed=9))
    rng = np.random.default_rng(10)
    perm = rng.permutation(200)
    a = pca(x0)
    b = pca(x0[perm])
    np.testing.assert_allclose(a.eigenvalues, b.eigenvalues, rtol=1e-9,
                               atol=1e-18)
    np.testing.assert_allclose(a.eigenvectors, b.eigenvectors, atol=1e-8)


def test_degenerate_spectrum_keeps_invariants() -> None:
    # Isotropic panel: eigenvalues nearly equal, so individual eigenvectors
    # are rotation-arbitrary; only basis-level invariants are asserted.
    rng = np.random.default_rng(11)
    x0, _ = center_columns(rng.standard_normal((2000, 3)))
    result = pca(x0)
    w = result.eigenvectors
    np.testing.assert_allclose(w.T @ w, np.eye(3), atol=1e-12)
    cov = x0.T @ x0 / (2000 - 1)
    rebuilt = w @ np.diag(result.eigenvalues) @ w.T
    np.testing.assert_allclose(rebuilt, cov, atol=1e-12)
