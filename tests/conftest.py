"""Shared fixtures and the acceptance-criteria reporter.

Acceptance tests register one PASS/FAIL verdict per criterion; a terminal
summary hook prints one line per criterion at the end of the run so the
gate's outcome is visible regardless of pytest's capture settings.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

CRITERIA: dict[int, tuple[str, str]] = {}


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        CRITERIA[number] = (label, "FAIL")
        raise
    CRITERIA[number] = (label, "PASS")


@pytest.fixture
def blas_at_two():
    """The BLAS under numpy at two threads for the test, as numpy's default
    on a 2-core host; the count found before is restored after it."""
    from shadowrate import blas
    before = blas.threads()
    if before is None:
        pytest.skip("the BLAS under numpy has no thread count to set")
    blas.set_threads(2)
    yield
    blas.set_threads(before)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(CRITERIA):
        label, verdict = CRITERIA[number]
        terminalreporter.write_line(
            f"criterion {number} ({label}): {verdict}")
