"""Shared test fixtures and the acceptance verdict summary.

Acceptance tests register one verdict each through the
``acceptance_recorder`` fixture; the verdicts are printed as a separate
section at the end of the pytest run so every criterion shows a single
pass/fail line regardless of output capturing.  Every test also fails if
it leaves a child process unreaped.
"""

import os

import pytest

ACCEPTANCE_RESULTS = []


def record_acceptance(index: int, title: str, ok: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((index, title, bool(ok), detail))


@pytest.fixture(scope="session")
def acceptance_recorder():
    return record_acceptance


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no children: all were reaped
        return
    state = "still running" if pid == 0 else f"pid {pid}, wait status {status}"
    pytest.fail(f"the test left a child process unreaped ({state})")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for index, title, ok, detail in sorted(ACCEPTANCE_RESULTS):
        verdict = "PASS" if ok else "FAIL"
        line = f"[{index:2d}] {title}: {verdict}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)
