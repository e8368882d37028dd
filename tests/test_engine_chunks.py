"""The chunked engine against the per-window reference loop in ``oracles``:
rows and spectra agree bit for bit however the dates fall into chunks, on
degenerate panels too, and the stacked helpers give the bits of the plain
arithmetic of one system. A chunk holds at least two dates, except a run's
last chunk and the one-date chunks of a ``calibrator``. The direct route's
pooled engine gives the serial engine's bits, raises a worker's error in
date order and keeps a ``calibrator`` on the calling thread. A pooled run
and every regression-route run hold the BLAS at one thread and restore the
caller's count, also when runs overlap; a serial direct-route run leaves the
BLAS alone. Either way the bits do not depend on the caller's count."""

from __future__ import annotations

import math
import os
import threading
import time
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from shadowrate import blas, calibration, cli, pipeline
from shadowrate.calibration import METHODS, calibrate, sigma_direct
from shadowrate.market_data import ReturnMatrix, log_returns
from shadowrate.pipeline import (PipelineConfig, RegularizerStates,
                                 run_srr_series)
from shadowrate.solver import build_phi, solve_svd, svd_factors
from shadowrate.synthetic import GbmSpec, simulate_gbm

from oracles import oracle_srr_series


def _panel(values: np.ndarray) -> ReturnMatrix:
    m, n = values.shape
    return ReturnMatrix(tuple(range(m)), tuple(f"A{j}" for j in range(n)),
                        values)


def _noisy(rows: int, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return 2e-4 + 0.01 * rng.standard_normal((rows, n))


def _bits(run) -> tuple[list, list]:
    # float.hex tells -0.0 from 0.0, which == does not
    rows = [tuple(v.hex() if isinstance(v, float) else v
                  for v in vars(row).values()) for row in run.rows]
    return rows, [(label, d.tobytes()) for label, d in run.singular_values]


def _engine(*args, **kwargs):
    """``run_srr_series`` with every RuntimeWarning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return run_srr_series(*args, **kwargs)


def _dates_per_chunk(monkeypatch, n: int,
                     dates: int | None) -> list[tuple[int, int]]:
    """Set the chunk budget to ``dates`` dates at ``n`` assets (None keeps
    the module's budget) and record the first row and the date count of
    every chunk run, in the order the chunks ran, which a pool permutes."""
    if dates is not None:
        monkeypatch.setattr(pipeline, "CHUNK_BYTES", dates * 64 * n * n)
    chunks: list[tuple[int, int]] = []
    stage = pipeline.chunk_systems

    def counted(r, values, end, count, cfg, calibrator):
        chunks.append((end, count))
        return stage(r, values, end, count, cfg, calibrator)

    monkeypatch.setattr(pipeline, "chunk_systems", counted)
    return chunks


def _sizes(chunks: list[tuple[int, int]]) -> list[int]:
    """The chunk sizes in date order."""
    return [count for _, count in sorted(chunks)]


# Singular start: the 4th asset repeats the 1st for 100 rows, so the windows
# ending at rows 59..99 are singular and the spectrum clamp seeds near zero.
# A wide spectrum band lets the clamped spectrum recover within the panel,
# so the rate clamp steps only on the later dates.
START_VALUES = _noisy(200, 4, seed=41)
START_VALUES[:100, 3] = START_VALUES[:100, 0]
START_PANEL = _panel(START_VALUES)
START_CFG = PipelineConfig(window_m=60, epsilon=0.2)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("dates", [1, 2, 7])
def test_chunk_boundaries_match_reference(monkeypatch, method, dates) -> None:
    # a one-date budget still gives either route two-date chunks
    cfg = replace(START_CFG, method=method)
    chunks = _dates_per_chunk(monkeypatch, 4, dates)
    run = _engine(START_PANEL, cfg)
    per_chunk = max(2, dates)
    assert _sizes(chunks) == [per_chunk] * (141 // per_chunk) + \
        ([141 % per_chunk] if 141 % per_chunk else [])
    # the singular start covers several chunks; blank and clamped rates
    # both follow it
    assert sum(row.nu_raw is None for row in run.rows) > 2 * per_chunk
    assert any(row.nu_hat is None and row.nu_raw is not None
               for row in run.rows)
    assert any(row.nu_hat != row.nu_eps for row in run.rows[-20:])
    assert _bits(run) == _bits(oracle_srr_series(START_PANEL, cfg))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("dates", [2, 7])
def test_warm_start_inside_a_chunk_matches_reference(monkeypatch, method,
                                                     dates) -> None:
    # The whole run's chunks start at rows 59 + j * dates; row 69 ends
    # none of them, so the head stops inside a chunk.
    cfg = replace(START_CFG, method=method)
    _dates_per_chunk(monkeypatch, 4, dates)
    head = _engine(START_PANEL, cfg, end_index=69)
    middle = _engine(START_PANEL, cfg, start_index=70, end_index=70,
                     states=head.states)
    tail = _engine(START_PANEL, cfg, start_index=71, states=middle.states)
    joined = SimpleNamespace(
        rows=head.rows + middle.rows + tail.rows,
        singular_values=(head.singular_values + middle.singular_values
                         + tail.singular_values))
    assert _bits(joined) == _bits(oracle_srr_series(START_PANEL, cfg))


@pytest.mark.parametrize("windows", [1, 3])
def test_regression_blocks_match_reference(monkeypatch, windows) -> None:
    # blocks of 1 and 3 windows inside chunks of 7 dates: the blocks of 3
    # end inside each chunk and at its end
    cfg = replace(START_CFG, method="regression")
    _dates_per_chunk(monkeypatch, 4, 7)
    monkeypatch.setattr(calibration, "CHUNK_BYTES", windows * 64 * 60 * 4)
    assert _bits(_engine(START_PANEL, cfg)) == \
        _bits(oracle_srr_series(START_PANEL, cfg))


def _cpus(monkeypatch, cpus: int) -> None:
    """Make the engine see ``cpus`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)


def _threads(monkeypatch, cpus: int,
             blas_threads: int | None = 1) -> SimpleNamespace:
    """Make the engine see ``cpus`` usable CPUs and a stand-in BLAS whose
    count starts at ``blas_threads`` (None: a BLAS whose count is unknown,
    which nothing may set). Returns the stand-in; its ``count`` is the
    count now."""
    fake = SimpleNamespace(count=blas_threads)

    def set_threads(count: int) -> None:
        assert fake.count is not None, "a BLAS of unknown count was set"
        fake.count = count

    monkeypatch.setattr(blas, "threads", lambda: fake.count)
    monkeypatch.setattr(blas, "set_threads", set_threads)
    _cpus(monkeypatch, cpus)
    return fake


def _blas_seen(monkeypatch) -> set:
    """The BLAS counts stage 2b runs at, from whichever thread runs it."""
    seen: set = set()
    stage = pipeline.factor_and_solve

    def recorded(phi, mu):
        seen.add(blas.threads())
        return stage(phi, mu)

    monkeypatch.setattr(pipeline, "factor_and_solve", recorded)
    return seen


def _state_bits(states: RegularizerStates) -> tuple:
    return (states.d_levels.tobytes(), states.nu_level.hex(),
            states.sigma_levels.tobytes())


@pytest.mark.parametrize("blas_threads, cpus", [(None, 3), (2, 3), (1, 1),
                                                (1, 2), (1, 3)])
@pytest.mark.parametrize("dates", [1, 2, 7])
def test_pooled_engine_matches_serial(monkeypatch, blas_threads, cpus,
                                      dates) -> None:
    chunks = _dates_per_chunk(monkeypatch, 4, dates)
    _threads(monkeypatch, 3, blas_threads=None)
    serial = _engine(START_PANEL, START_CFG)
    assert serial.workers == 1
    fake = _threads(monkeypatch, cpus, blas_threads)
    seen = _blas_seen(monkeypatch)
    chunks.clear()
    pooled = _engine(START_PANEL, START_CFG)
    # a one-date budget gives two-date chunks
    count = -(-141 // max(2, dates))
    assert len(chunks) == count
    # on the direct route any BLAS of known count gets the pool; every run
    # holds a known count at one BLAS thread, then restores the caller's
    pools = blas_threads is not None
    assert pooled.workers == (min(cpus, count) if pools else 1)
    assert seen == {1 if pools else None}
    assert fake.count == blas_threads
    assert _bits(pooled) == _bits(serial)
    assert _state_bits(pooled.states) == _state_bits(serial.states)


@pytest.mark.parametrize("n", [40, 64, 65, 96])
@pytest.mark.parametrize("dates", [None, 1])
def test_direct_chunks_hold_two_dates_but_the_last(monkeypatch, n,
                                                   dates) -> None:
    # The module's budget fits 5 dates at N=40, 2 at N=64 and 1 from N=65;
    # no budget gives a direct-route chunk of one date, except the last
    # chunk of a run, which takes the dates left.
    panel = _panel(_noisy(n + 12, n, seed=49))
    chunks = _dates_per_chunk(monkeypatch, n, dates)
    _engine(panel, PipelineConfig(window_m=n + 2))
    sizes = _sizes(chunks)
    assert sum(sizes) == 11 and len(sizes) > 1
    assert min(sizes[:-1]) >= 2 and sizes[-1] >= 1


def test_pool_past_the_chunk_budget_matches_serial_and_reference(
        monkeypatch) -> None:
    # At N=66 a two-date chunk (0.56 MB) exceeds the 0.52 MB budget, and
    # the direct route still runs two-date chunks on the pool.
    panel = _panel(_noisy(86, 66, seed=50))
    cfg = PipelineConfig(window_m=80)
    chunks = _dates_per_chunk(monkeypatch, 66, None)
    _threads(monkeypatch, 2, blas_threads=None)
    serial = _engine(panel, cfg)
    fake = _threads(monkeypatch, 2, blas_threads=2)
    seen = _blas_seen(monkeypatch)
    chunks.clear()
    pooled = _engine(panel, cfg)
    assert _sizes(chunks) == [2, 2, 2, 1]
    assert (serial.workers, pooled.workers) == (1, 2)
    assert seen == {1} and fake.count == 2
    assert _bits(pooled) == _bits(serial) == \
        _bits(oracle_srr_series(panel, cfg))
    assert _state_bits(pooled.states) == _state_bits(serial.states)


def test_library_caller_at_two_blas_threads_gets_the_pool(
        monkeypatch, blas_at_two) -> None:
    # the BLAS under numpy itself, not a stand-in
    _dates_per_chunk(monkeypatch, 4, 7)
    with monkeypatch.context() as unknown:
        unknown.setattr(blas, "threads", lambda: None)
        serial = _engine(START_PANEL, START_CFG)
    _cpus(monkeypatch, 3)
    seen = _blas_seen(monkeypatch)
    pooled = _engine(START_PANEL, START_CFG)
    assert (serial.workers, pooled.workers) == (1, 3)
    assert seen == {1} and blas.threads() == 2
    assert _bits(pooled) == _bits(serial)
    assert _state_bits(pooled.states) == _state_bits(serial.states)

    def fail(end):
        if end == 65:
            raise ValueError("no window ending at row 65")

    _failing_chunks(monkeypatch, fail)
    with pytest.raises(ValueError, match="^no window ending at row 65$"):
        _engine(START_PANEL, START_CFG)
    assert blas.threads() == 2


def test_regression_backfill_and_updates_give_the_whole_runs_bits(
        monkeypatch, blas_at_two) -> None:
    # A backfill in several chunks and its one-date updates, at a caller's
    # two BLAS threads, join into the whole run's bits.
    mu, sigma, s0 = cli._default_parameters(40)
    prices, _ = simulate_gbm(GbmSpec(mu=mu, sigma=sigma, s0=s0, steps=1516,
                                     seed=5))
    panel = log_returns(prices)
    cfg = PipelineConfig(window_m=1500, method="regression")
    chunks = _dates_per_chunk(monkeypatch, 40, None)
    _cpus(monkeypatch, 2)
    whole = _engine(panel, cfg)
    chunks.clear()
    head = _engine(panel, cfg, end_index=1508)
    assert _sizes(chunks) == [5, 5]
    runs = [head]
    for end in range(1509, len(panel.dates)):
        runs.append(_engine(panel, cfg, start_index=end, end_index=end,
                            states=runs[-1].states))
    assert {run.workers for run in runs + [whole]} == {1}
    assert blas.threads() == 2
    joined = SimpleNamespace(
        rows=[row for run in runs for row in run.rows],
        singular_values=[sv for run in runs for sv in run.singular_values])
    assert len(joined.rows) == len(whole.rows) > 10
    assert _bits(joined) == _bits(whole)
    assert _state_bits(runs[-1].states) == _state_bits(whole.states)


def test_overlapping_pooled_runs_restore_the_callers_count(
        monkeypatch, blas_at_two) -> None:
    # Two caller threads run the pool at once. Run a opens its BLAS scope
    # first and closes it first; run b opens inside a's scope, so it finds
    # one thread, and closes last. Each must still give the serial bits,
    # and the caller's two threads must be back after both.
    _dates_per_chunk(monkeypatch, 4, 2)
    with monkeypatch.context() as unknown:
        unknown.setattr(blas, "threads", lambda: None)
        serial = _engine(START_PANEL, START_CFG)
    _cpus(monkeypatch, 2)
    cfg_a, cfg_b = replace(START_CFG), replace(START_CFG)
    a_in, b_in, a_done = threading.Event(), threading.Event(), \
        threading.Event()
    seen: list = []
    stage = pipeline.chunk_systems

    def gated(r, values, end, count, cfg, calibrator):
        seen.append(blas.threads())
        if cfg is cfg_a and end == 59:
            a_in.set()
            assert b_in.wait(timeout=10)
        if cfg is cfg_b and end == 59:
            b_in.set()
        if cfg is cfg_b and end + count == 200:
            assert a_done.wait(timeout=10)
        return stage(r, values, end, count, cfg, calibrator)

    monkeypatch.setattr(pipeline, "chunk_systems", gated)
    runs: dict = {}
    errors: list = []

    def call(cfg) -> None:
        # not _engine: catch_warnings is not safe across threads
        try:
            runs[cfg is cfg_a] = run_srr_series(START_PANEL, cfg)
        except BaseException as exc:
            errors.append(exc)
        finally:
            if cfg is cfg_a:
                a_done.set()

    callers = [threading.Thread(target=call, args=(cfg,))
               for cfg in (cfg_a, cfg_b)]
    callers[0].start()
    assert a_in.wait(timeout=10)
    callers[1].start()
    for caller in callers:
        caller.join(timeout=30)
    assert not errors and not any(c.is_alive() for c in callers)
    assert set(seen) == {1} and blas.threads() == 2
    for run in runs.values():
        assert run.workers == 2
        assert _bits(run) == _bits(serial)
        assert _state_bits(run.states) == _state_bits(serial.states)


@pytest.mark.parametrize("case", ["one-date update", "single chunk",
                                  "calibrator"])
def test_serial_runs_leave_the_blas_alone(monkeypatch, case) -> None:
    head = _engine(START_PANEL, START_CFG, end_index=69)
    if case != "single chunk":
        # 141 dates at N=4 are one chunk of the module's own budget
        _dates_per_chunk(monkeypatch, 4, 2)
    _cpus(monkeypatch, 3)

    def asked(*args):
        raise AssertionError("the serial engine asked the BLAS")

    monkeypatch.setattr(blas, "threads", asked)
    monkeypatch.setattr(blas, "set_threads", asked)
    kwargs = {"one-date update": dict(start_index=70, end_index=70,
                                      states=head.states),
              "single chunk": {},
              "calibrator": dict(calibrator=calibrate)}[case]
    run = _engine(START_PANEL, START_CFG, **kwargs)
    assert run.workers == 1
    assert len(run.rows) == (1 if case == "one-date update" else 141)


def test_regression_runs_hold_one_blas_thread(monkeypatch) -> None:
    head_cfg = replace(START_CFG, method="regression")
    head = _engine(START_PANEL, head_cfg, end_index=69)
    _dates_per_chunk(monkeypatch, 4, 2)
    fake = _threads(monkeypatch, 3, blas_threads=2)
    seen = _blas_seen(monkeypatch)
    whole = _engine(START_PANEL, head_cfg)
    update = _engine(START_PANEL, head_cfg, start_index=70, end_index=70,
                     states=head.states)
    assert (whole.workers, update.workers) == (1, 1)
    assert (len(whole.rows), len(update.rows)) == (141, 1)
    assert seen == {1} and fake.count == 2


def test_regression_bits_do_not_depend_on_the_callers_blas_count(
        blas_at_two) -> None:
    # At N=40, M=1500 the route's least-squares fit rounds differently at
    # one and at two BLAS threads; a run holds one thread whatever count
    # its caller runs.
    mu, sigma, s0 = cli._default_parameters(40)
    prices, _ = simulate_gbm(GbmSpec(mu=mu, sigma=sigma, s0=s0, steps=1506,
                                     seed=5))
    panel = log_returns(prices)
    cfg = PipelineConfig(window_m=1500, method="regression")
    at_two = _engine(panel, cfg)
    assert blas.threads() == 2
    blas.set_threads(1)
    at_one = _engine(panel, cfg)
    assert len(at_two.rows) == 6
    assert _bits(at_two) == _bits(at_one)
    assert _state_bits(at_two.states) == _state_bits(at_one.states)


def test_direct_bits_do_not_depend_on_the_callers_blas_count(
        monkeypatch, blas_at_two) -> None:
    # A serial direct-route run, such as a one-date update, runs at its
    # caller's count; a pooled backfill runs at one thread. At N=40 and
    # M=1500 both give the bits of a serial run at one thread.
    mu, sigma, s0 = cli._default_parameters(40)
    prices, _ = simulate_gbm(GbmSpec(mu=mu, sigma=sigma, s0=s0, steps=1516,
                                     seed=5))
    panel = log_returns(prices)
    cfg = PipelineConfig(window_m=1500)
    _cpus(monkeypatch, 2)
    runs = [_engine(panel, cfg, end_index=1508)]
    for end in range(1509, len(panel.dates)):
        runs.append(_engine(panel, cfg, start_index=end, end_index=end,
                            states=runs[-1].states))
    assert [run.workers for run in runs] == [2] + [1] * 6
    assert blas.threads() == 2
    blas.set_threads(1)
    with monkeypatch.context() as unknown:
        unknown.setattr(blas, "threads", lambda: None)
        whole = _engine(panel, cfg)
    assert whole.workers == 1
    joined = SimpleNamespace(
        rows=[row for run in runs for row in run.rows],
        singular_values=[sv for run in runs for sv in run.singular_values])
    assert len(joined.rows) == len(whole.rows) == 16
    assert _bits(joined) == _bits(whole)
    assert _state_bits(runs[-1].states) == _state_bits(whole.states)


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("dates", [2, 7])
def test_pooled_warm_starts_match_serial(monkeypatch, cpus, dates) -> None:
    # row 69 ends no chunk of the whole run, so the head stops inside one
    _dates_per_chunk(monkeypatch, 4, dates)
    _threads(monkeypatch, cpus, blas_threads=None)
    whole = _engine(START_PANEL, START_CFG)
    _threads(monkeypatch, cpus)
    head = _engine(START_PANEL, START_CFG, end_index=69)
    middle = _engine(START_PANEL, START_CFG, start_index=70, end_index=70,
                     states=head.states)
    tail = _engine(START_PANEL, START_CFG, start_index=71,
                   states=middle.states)
    assert (head.workers, middle.workers, tail.workers) == \
        (min(cpus, -(-11 // dates)), 1, cpus)
    joined = SimpleNamespace(
        rows=head.rows + middle.rows + tail.rows,
        singular_values=(head.singular_values + middle.singular_values
                         + tail.singular_values))
    assert _bits(joined) == _bits(whole)
    assert _state_bits(tail.states) == _state_bits(whole.states)


def _failing_chunks(monkeypatch, fail) -> list[int]:
    """Chunks of 2 dates, starting at rows 59, 61, ...; ``fail(end)`` runs
    before each chunk's stages. Returns the first rows of the chunks
    started."""
    _dates_per_chunk(monkeypatch, 4, 2)
    stage = pipeline.chunk_systems
    started: list[int] = []

    def failing(r, values, end, count, cfg, calibrator):
        started.append(end)
        fail(end)
        return stage(r, values, end, count, cfg, calibrator)

    monkeypatch.setattr(pipeline, "chunk_systems", failing)
    return started


def _no_worker_left() -> bool:
    return not [t for t in threading.enumerate()
                if t.name.startswith("shadowrate")]


@pytest.mark.parametrize("blas_threads", [None, 1])
def test_worker_error_surfaces_in_date_order(monkeypatch,
                                             blas_threads) -> None:
    # The chunks at rows 65 and 69 fail; on the pool the later one fails
    # first, yet the error of the first in date order is raised, as in a
    # serial run.
    _threads(monkeypatch, 2, blas_threads)
    later_failed = threading.Event()

    def fail(end):
        if end == 65:
            if threading.current_thread() is not threading.main_thread():
                assert later_failed.wait(timeout=10)
            raise ValueError("no window ending at row 65")
        if end == 69:
            later_failed.set()
            raise ValueError("no window ending at row 69")

    started = _failing_chunks(monkeypatch, fail)
    with pytest.raises(ValueError, match="^no window ending at row 65$"):
        _engine(START_PANEL, START_CFG)
    assert 69 in started if blas_threads == 1 else max(started) == 65
    assert _no_worker_left()


def test_queued_chunks_are_cancelled_after_an_error(monkeypatch) -> None:
    # The chunk at row 65 fails while both workers hold a later chunk, so
    # the chunk at row 71, the last one queued, is cancelled, not started.
    _threads(monkeypatch, 2)

    def fail(end):
        if end == 65:
            raise ValueError("no window ending at row 65")
        if end > 65:
            time.sleep(0.5)

    started = _failing_chunks(monkeypatch, fail)
    with pytest.raises(ValueError, match="^no window ending at row 65$"):
        _engine(START_PANEL, START_CFG)
    assert 71 not in started and max(started) <= 69
    assert _no_worker_left()


def test_pool_keeps_two_chunks_per_worker_in_flight(monkeypatch) -> None:
    _threads(monkeypatch, 2)
    chunks = _dates_per_chunk(monkeypatch, 4, 2)
    stage = pipeline._fill
    ahead: list[int] = []

    def slow_fill(*args):
        # chunks started and not yet taken, this one included
        ahead.append(len(chunks) - len(ahead))
        time.sleep(0.001)  # let the workers run ahead if they may
        return stage(*args)

    monkeypatch.setattr(pipeline, "_fill", slow_fill)
    run = _engine(START_PANEL, START_CFG)
    assert run.workers == 2 and len(ahead) == 71
    assert max(ahead) <= 4


def test_calibrator_runs_on_the_calling_thread(monkeypatch) -> None:
    _threads(monkeypatch, 2)
    threads: set[str] = set()

    def calibrator(window):
        threads.add(threading.current_thread().name)
        return calibrate(window)

    run = _engine(START_PANEL, START_CFG, calibrator=calibrator)
    assert run.workers == 1
    assert threads == {threading.current_thread().name}


def test_module_chunk_budget_crosses_a_boundary(monkeypatch) -> None:
    # 641 dates at N=4: more than one chunk of the module's own budget
    panel = _panel(_noisy(700, 4, seed=42))
    cfg = PipelineConfig(window_m=60)
    chunks = _dates_per_chunk(monkeypatch, 4, None)
    run = _engine(panel, cfg)
    assert len(chunks) > 1 and sum(_sizes(chunks)) == 641
    assert _bits(run) == _bits(oracle_srr_series(panel, cfg))


def _constant_asset() -> tuple[np.ndarray, int]:
    values = _noisy(60, 4, seed=43)
    values[:, 2] = 3e-4
    return values, 30


def _duplicated_asset() -> tuple[np.ndarray, int]:
    values = _noisy(60, 4, seed=44)
    values[:, 3] = values[:, 0]
    return values, 30


def _shortest_window() -> tuple[np.ndarray, int]:
    return _noisy(40, 4, seed=45), 5


def _all_zero() -> tuple[np.ndarray, int]:
    return np.zeros((40, 4)), 20


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("make", [_constant_asset, _duplicated_asset,
                                  _shortest_window, _all_zero])
def test_degenerate_panels_match_reference(method, make) -> None:
    values, window_m = make()
    panel = _panel(values)
    cfg = PipelineConfig(window_m=window_m, method=method)
    run = _engine(panel, cfg)
    assert _bits(run) == _bits(oracle_srr_series(panel, cfg))
    for row in run.rows:
        for value in vars(row).values():
            assert value is None or not isinstance(value, float) \
                or not math.isnan(value)


@pytest.mark.parametrize("field, value", [("d_levels", math.nan),
                                          ("nu_level", math.inf),
                                          ("sigma_levels", -math.inf)])
def test_non_finite_carried_level_is_rejected(field, value) -> None:
    panel = _panel(_noisy(80, 4, seed=46))
    cfg = PipelineConfig(window_m=60)
    states = run_srr_series(panel, cfg, end_index=70).states
    if field == "nu_level":
        bad = RegularizerStates(states.d_levels, value, states.sigma_levels)
    else:
        levels = getattr(states, field).copy()
        levels[-1] = value
        bad = RegularizerStates(**{**vars(states), field: levels})
    with pytest.raises(ValueError, match="previous level must be finite"):
        run_srr_series(panel, cfg, start_index=71, states=bad)


def test_stacked_solve_keeps_the_one_date_bits() -> None:
    # solve_svd runs the engine's stacked helpers on one system; the
    # reference is the plain arithmetic of one system.
    rng = np.random.default_rng(47)
    for _ in range(200):
        n = int(rng.integers(2, 41))
        system = build_phi(0.02 * rng.standard_normal((n, n - 1)),
                           1e-3 * rng.standard_normal(n))
        f = svd_factors(system.phi)
        u, d, vh = np.linalg.svd(system.phi)
        assert f.u.tobytes() == u.tobytes()
        assert f.v.tobytes() == vh.T.tobytes()
        x = vh.T @ ((u.T @ system.mu) / d)
        got = solve_svd(system, factors=f)
        assert got.nu.hex() == float(x[0]).hex()
        assert got.sigma_pi.tobytes() == x[1:].tobytes()
        assert got.sigma_pi_total.hex() == \
            float(np.linalg.norm(x[1:])).hex()
        assert got.residual_norm.hex() == \
            float(np.linalg.norm(system.phi @ x - system.mu)).hex()


def test_stacked_loadings_keep_the_one_date_bits() -> None:
    rng = np.random.default_rng(48)
    lam = np.sort(np.abs(rng.standard_normal((6, 5))), axis=1)[:, ::-1]
    w = rng.standard_normal((6, 5, 5))
    stacked = sigma_direct(lam, w)
    for j in range(6):
        one = w[j][:, :4] * np.sqrt(lam[j][:4])
        assert stacked[j].tobytes() == one.tobytes()
        assert sigma_direct(lam[j], w[j]).tobytes() == one.tobytes()
