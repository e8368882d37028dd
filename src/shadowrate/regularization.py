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
    entries are clamped independently in one call: the array form applies
    the same IEEE operations as the scalar form, entry by entry.
    """
    previous = state.previous
    if np.ndim(raw) == 0 and not isinstance(previous, np.ndarray):
        raw = float(raw)
        if not math.isfinite(raw):
            raise ValueError(f"raw value must be finite, got {raw!r}")
        if previous is None or previous == 0.0:
            return raw, ClampState(state.epsilon, raw)
        lo = previous * (1.0 - state.epsilon)
        hi = previous * (1.0 + state.epsilon)
        if lo > hi:  # negative previous level flips the edges
            lo, hi = hi, lo
        clamped = min(max(raw, lo), hi)
        return clamped, ClampState(state.epsilon, clamped)

    raw = np.asarray(raw, dtype=np.float64)
    if not np.isfinite(raw).all():
        raise ValueError(f"raw values must be finite, got {raw!r}")
    if previous is None:
        clamped = raw.copy()
    elif np.shape(previous) != raw.shape:
        raise ValueError(f"{np.shape(previous)} previous levels for raw "
                         f"values of shape {raw.shape}")
    else:
        clamped = band_step(previous, raw, 1.0 - state.epsilon,
                            1.0 + state.epsilon)
    return clamped, ClampState(state.epsilon, clamped)


def band_step(previous: np.ndarray, raw: np.ndarray, down, up) -> np.ndarray:
    """One step of independent levels: each raw value clipped to the band
    between ``previous * down`` and ``previous * up`` (``down = 1 - epsilon``
    and ``up = 1 + epsilon``, per level or shared); a zero level passes its
    raw value through. The same IEEE operations as the scalar path of
    ``clamp``, entry by entry."""
    lo = previous * down
    hi = previous * up
    return np.where(previous == 0.0, raw,
                    np.minimum(np.maximum(raw, np.minimum(lo, hi)),
                               np.maximum(lo, hi)))


@dataclass(frozen=True)
class RegularizedSvd:
    """Clamped singular spectrum."""

    d_bar: np.ndarray


def regularize_singulars(
    d: np.ndarray,
    state: ClampState,
    mode: str = "min-only",
) -> tuple[RegularizedSvd, ClampState]:
    """Clamp a singular spectrum against its per-index history.

    ``state.previous`` holds one level per index (None before the first
    date). ``min-only`` clamps just the smallest (last) singular value,
    leaving the rest and their levels untouched; ``all`` clamps every index
    independently.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 1 or d.size == 0:
        raise ValueError(f"expected a non-empty 1-d spectrum, got shape {d.shape}")
    previous = state.previous
    if previous is not None and np.shape(previous) != d.shape:
        raise ValueError(f"clamp states of shape {np.shape(previous)} for a "
                         f"spectrum of {d.size} values")
    if mode == "all":
        d_bar, state = clamp(state, d)
        return RegularizedSvd(d_bar), state
    last, _ = clamp(ClampState(state.epsilon,
                               None if previous is None else float(previous[-1])),
                    d[-1])
    d_bar = d.copy()
    d_bar[-1] = last
    levels = np.zeros(d.size) if previous is None else previous.copy()
    levels[-1] = last
    return RegularizedSvd(d_bar), ClampState(state.epsilon, levels)
