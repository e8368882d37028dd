"""Recursive relative-band clamping of noisy time series.

A clamped series may move by at most a fraction ``epsilon`` of its previous
clamped level per step: the raw value is clipped to the closed interval
between ``previous * (1 - epsilon)`` and ``previous * (1 + epsilon)``. For a
positive previous level this is exactly

    raw >= previous :  min(raw, (1 + epsilon) * previous)
    raw <  previous :  max(raw, (1 - epsilon) * previous)

and the interval form extends the same one-step band to negative levels
without losing the betweenness property (the output always lies between the
previous level and the raw value). A zero previous level passes the raw
value through and re-seeds the recursion.

The same primitive serves two roles: clamping the smallest singular
value(s) of the per-date pricing matrix, and secondary smoothing of the
solved rate and volatility components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MODES = ("min-only", "all")


@dataclass(frozen=True)
class ClampState:
    """Carries the previous clamped level(s) between steps of one series.

    ``previous`` is one level, or an array of levels that step together; a
    zero level is unseeded, as is the whole series while it is None.
    """

    epsilon: float
    previous: float | np.ndarray | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive and finite, "
                             f"got {self.epsilon!r}")
        if self.previous is not None and not np.isfinite(self.previous).all():
            raise ValueError(f"previous level must be finite, got {self.previous!r}")


def clamp(state: ClampState, raw) -> tuple[float | np.ndarray, ClampState]:
    """One recursion step; returns (clamped value, advanced state).

    ``raw`` is one level, or an array shaped like ``state.previous`` whose
    entries are clamped independently in one ``band_step``; a scalar
    ``raw`` gives a float.
    """
    values = np.asarray(raw, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError(f"raw values must be finite, got {raw!r}")
    previous = state.previous
    if previous is None:
        clamped = values.copy()
    elif np.shape(previous) != values.shape:
        raise ValueError(f"{np.shape(previous)} previous levels for raw "
                         f"values of shape {values.shape}")
    else:
        clamped = band_step(previous, values, 1.0 - state.epsilon,
                            1.0 + state.epsilon)
    if clamped.ndim == 0:
        clamped = float(clamped)
    return clamped, ClampState(state.epsilon, clamped)


def band_step(previous: np.ndarray, raw: np.ndarray, down, up) -> np.ndarray:
    """One step of independent levels: each raw value clipped to the band
    between ``previous * down`` and ``previous * up`` (``down = 1 - epsilon``
    and ``up = 1 + epsilon``, per level or shared); a zero level passes its
    raw value through."""
    lo = previous * down
    hi = previous * up
    return np.where(previous == 0.0, raw,
                    np.minimum(np.maximum(raw, np.minimum(lo, hi)),
                               np.maximum(lo, hi)))


def spectrum_indices(mode: str) -> slice:
    """The singular-value indices that ``mode`` clamps: ``min-only`` the
    smallest (last) alone, ``all`` every one."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return slice(None) if mode == "all" else slice(-1, None)


def regularize_singulars(d: np.ndarray, state: ClampState,
                         mode: str = "min-only"
                         ) -> tuple[np.ndarray, ClampState]:
    """Clamp a singular spectrum against its per-index history; returns
    (clamped spectrum, advanced state).

    ``state.previous`` holds one level per index (None before the first
    date). The indices outside ``spectrum_indices(mode)`` and their levels
    are left untouched.
    """
    clamped = spectrum_indices(mode)
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 1 or d.size == 0:
        raise ValueError(f"expected a non-empty 1-d spectrum, got shape {d.shape}")
    levels = np.zeros(d.size) if state.previous is None \
        else np.array(state.previous, dtype=np.float64)
    if levels.shape != d.shape:
        raise ValueError(f"clamp states of shape {levels.shape} for a "
                         f"spectrum of {d.size} values")
    levels[clamped] = band_step(levels[clamped], d[clamped],
                                1.0 - state.epsilon, 1.0 + state.epsilon)
    d_bar = d.copy()
    d_bar[clamped] = levels[clamped]
    return d_bar, ClampState(state.epsilon, levels)
