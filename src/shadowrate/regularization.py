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
value through and re-seeds the recursion. With ``epsilon < 1`` a nonzero
level keeps its sign whatever the raw values do; a band ``epsilon >= 1``
reaches zero or beyond, so the level can cross zero.

``band_steps`` is that rule in plain Python floats, for every clamp: the
smallest singular value(s) of each date's pricing matrix, and the solved
rate and volatility components. A NaN raw value passes through, and signed
zeros come out as in numpy's ``where(previous == 0, raw, minimum(maximum(
raw, minimum(lo, hi)), maximum(lo, hi)))``, bit for bit for finite levels.
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
    entries are clamped independently in one ``band_steps`` row; a scalar
    ``raw`` gives a float.
    """
    values = np.asarray(raw, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError(f"raw values must be finite, got {raw!r}")
    previous = np.zeros(values.shape) if state.previous is None \
        else state.previous
    if np.shape(previous) != values.shape:
        raise ValueError(f"{np.shape(previous)} previous levels for raw "
                         f"values of shape {values.shape}")
    clamped = np.reshape(band_steps(
        np.ravel(previous).tolist(), [values.ravel().tolist()],
        1.0 - state.epsilon, 1.0 + state.epsilon), values.shape)
    clamped = float(clamped) if clamped.ndim == 0 else clamped
    return clamped, ClampState(state.epsilon, clamped)


def band_steps(levels: list, rows, down, up) -> list[list[float]]:
    """Step ``levels`` through ``rows`` of raw values in order, with bands
    ``down = 1 - epsilon`` and ``up = 1 + epsilon`` (one float for every
    level, or one per level); returns the levels after each row."""
    down = [down] * len(levels) if isinstance(down, float) else down
    up = [up] * len(levels) if isinstance(up, float) else up
    steps = []
    for row in rows:
        stepped = []
        for p, r, a, b in zip(levels, row, down, up):
            if p != 0.0:
                lo, hi = p * a, p * b
                if p < 0.0:  # a negative level flips the edges
                    lo, hi = hi, lo
                r = lo if r <= lo else hi if r >= hi else r
            stepped.append(r)
        steps.append(stepped)
        levels = stepped
    return steps


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
    levels[clamped] = band_steps(levels[clamped].tolist(),
                                 [d[clamped].tolist()], 1.0 - state.epsilon,
                                 1.0 + state.epsilon)[0]
    d_bar = d.copy()
    d_bar[clamped] = levels[clamped]
    return d_bar, ClampState(state.epsilon, levels)
