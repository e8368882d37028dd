"""Clamp recursion tests: worked values, exact properties, state threading."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowrate.regularization import ClampState, clamp, regularize_singulars

from oracles import (ScalarClampState, scalar_clamp,
                     scalar_regularize_singulars)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)


def secondary_regularize(series, delta: float) -> list[float]:
    """Fold the clamp over a series, seeding on its first element."""
    state = ClampState(epsilon=delta)
    out = []
    for value in series:
        clamped, state = clamp(state, float(value))
        out.append(clamped)
    return out


def test_uninitialized_state_passes_through_and_seeds() -> None:
    state = ClampState(epsilon=0.005)
    assert state.previous is None
    value, state = clamp(state, 1.234)
    assert value == 1.234
    assert state.previous == 1.234


def test_worked_examples() -> None:
    state = ClampState(epsilon=0.005, previous=1.0)
    assert clamp(state, 1.1)[0] == 1.0 * (1.0 + 0.005)   # capped at 1.005
    assert clamp(state, 1.002)[0] == 1.002                # inside the band
    assert clamp(state, 0.9)[0] == 1.0 * (1.0 - 0.005)    # floored at 0.995


def test_zero_previous_reseeds() -> None:
    state = ClampState(epsilon=0.01, previous=0.0)
    value, state = clamp(state, 7.0)
    assert value == 7.0 and state.previous == 7.0
    value, _ = clamp(state, 7.5)
    assert value == 7.0 * 1.01


def test_epsilon_validation() -> None:
    with pytest.raises(ValueError):
        ClampState(epsilon=0.0)
    with pytest.raises(ValueError):
        ClampState(epsilon=-0.1)
    with pytest.raises(ValueError):
        ClampState(epsilon=float("nan"))
    with pytest.raises(ValueError):
        clamp(ClampState(epsilon=0.1), float("inf"))


@settings(max_examples=300)
@given(prev=finite, raw=finite, eps=st.floats(min_value=1e-6, max_value=0.5))
def test_clamp_properties(prev, raw, eps) -> None:
    state = ClampState(epsilon=eps, previous=prev)
    value, new_state = clamp(state, raw)
    assert new_state.previous == value
    if prev == 0.0:
        assert value == raw
        return
    # betweenness: the output lies in the closed interval [prev, raw]
    assert min(prev, raw) <= value <= max(prev, raw)
    # one-step band, asserted through the same edge products the clamp uses
    lo, hi = sorted((prev * (1.0 - eps), prev * (1.0 + eps)))
    assert lo <= value <= hi
    # pass-through when raw is already inside the band
    if lo <= raw <= hi:
        assert value == raw
    # positivity is preserved
    if prev > 0.0 and raw > 0.0:
        assert value > 0.0


def test_regularize_min_only_touches_only_smallest() -> None:
    d = np.array([5.0, 1.0, 0.01])
    state = ClampState(epsilon=0.005, previous=np.array([0.0, 0.0, 0.02]))
    d_bar, new_state = regularize_singulars(d, state, mode="min-only")
    np.testing.assert_array_equal(d_bar[:2], d[:2])
    assert d_bar[2] == 0.02 * (1.0 - 0.005)  # floored at 0.0199
    np.testing.assert_array_equal(new_state.previous[:2], [0.0, 0.0])
    assert new_state.previous[2] == d_bar[2]
    # a fresh state seeds only the smallest index
    _, seeded = regularize_singulars(d, ClampState(epsilon=0.005))
    np.testing.assert_array_equal(seeded.previous, [0.0, 0.0, 0.01])


def test_regularize_all_clamps_every_index() -> None:
    d = np.array([5.0, 1.0, 0.01])
    state = ClampState(epsilon=0.005, previous=np.array([4.0, 1.0, 0.02]))
    d_bar, new_state = regularize_singulars(d, state, mode="all")
    assert d_bar[0] == 4.0 * 1.005
    assert d_bar[1] == 1.0
    assert d_bar[2] == 0.02 * 0.995
    np.testing.assert_array_equal(new_state.previous, d_bar)


def test_regularize_validation() -> None:
    state = ClampState(epsilon=0.1, previous=np.array([1.0]))
    with pytest.raises(ValueError, match="states"):
        regularize_singulars(np.array([1.0, 2.0]), state)
    with pytest.raises(ValueError, match="mode"):
        regularize_singulars(np.array([1.0]), state, mode="other")


@settings(max_examples=300)
@given(prev=st.lists(finite, min_size=1, max_size=6), data=st.data(),
       eps=st.floats(min_value=1e-6, max_value=0.5), fresh=st.booleans(),
       shape=st.sampled_from(["array", "float", "0-d"]))
def test_array_clamp_equals_scalar_clamps(prev, data, eps, fresh,
                                          shape) -> None:
    # one step of an array, or of each entry as a Python float or a 0-d
    # array, is bit for bit the reference scalar step of each entry
    raw = data.draw(st.lists(finite, min_size=len(prev), max_size=len(prev)))
    if shape == "array":
        values, state = clamp(ClampState(eps, None if fresh else np.array(prev)),
                              np.array(raw))
        np.testing.assert_array_equal(state.previous, values)
    else:
        wrap = float if shape == "float" else np.array
        values = []
        for p, r in zip(prev, raw):
            value, state = clamp(ClampState(eps, None if fresh else wrap(p)),
                                 wrap(r))
            assert type(value) is float and state.previous is value
            values.append(value)
    for k, (p, r) in enumerate(zip(prev, raw)):
        expected, _ = scalar_clamp(ScalarClampState(eps, None if fresh else p),
                                   r)
        assert values[k] == expected
        assert np.signbit(values[k]) == np.signbit(expected)


def _levels(states) -> np.ndarray:
    return np.array([0.0 if s.previous is None else s.previous
                     for s in states])


@settings(max_examples=200)
@given(n=st.integers(min_value=1, max_value=5), data=st.data(),
       eps=st.floats(min_value=1e-6, max_value=0.5), seeded=st.booleans(),
       mode=st.sampled_from(["min-only", "all"]))
def test_regularize_singulars_steps_equal_scalar_reference(n, data, eps,
                                                           seeded,
                                                           mode) -> None:
    # a run of spectra, from a fresh or a seeded state, clamps bit for bit
    # as the reference scalar clamp of each clamped index
    row = st.lists(finite, min_size=n, max_size=n)
    spectra = data.draw(st.lists(row, min_size=1, max_size=8))
    reference = tuple(ScalarClampState(eps) for _ in range(n))
    state = ClampState(eps)
    if seeded:
        levels = data.draw(row)
        reference = tuple(ScalarClampState(eps, v) for v in levels)
        state = ClampState(eps, np.array(levels))
    for spectrum in spectra:
        d = np.array(spectrum)
        d_bar, state = regularize_singulars(d, state, mode)
        expected, reference = scalar_regularize_singulars(d, reference, mode)
        assert d_bar.tobytes() == expected.tobytes()
        assert state.previous.tobytes() == _levels(reference).tobytes()


def test_secondary_regularize_worked_example() -> None:
    smoothed = secondary_regularize([1.0, 2.0, 3.0], delta=0.1)
    assert smoothed == pytest.approx([1.0, 1.1, 1.21], rel=1e-12)


def test_secondary_regularize_empty() -> None:
    assert secondary_regularize([], delta=0.1) == []


def test_secondary_regularize_descent_toward_zero_crossing() -> None:
    # From a positive level toward a negative target the clamp walks down
    # geometrically and never overshoots zero.
    smoothed = secondary_regularize([1.0] + [-1.0] * 50, delta=0.1)
    assert smoothed[1] == pytest.approx(0.9)
    assert all(v > 0.0 for v in smoothed)
    assert smoothed[-1] == pytest.approx(0.9 ** 50, rel=1e-12)


def test_fold_split_is_bit_exact() -> None:
    rng = np.random.default_rng(5)
    series = rng.standard_normal(200)
    whole = secondary_regularize(series, delta=0.05)

    state = ClampState(epsilon=0.05)
    first = []
    for v in series[:80]:
        value, state = clamp(state, float(v))
        first.append(value)
    second = []
    for v in series[80:]:
        value, state = clamp(state, float(v))
        second.append(value)
    assert first + second == whole
