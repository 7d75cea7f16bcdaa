"""Shared fixtures and the acceptance-summary reporter."""
import numpy as np
import pytest
from hypothesis import settings

from qoct import ModelParams
from qoct.xgate import GateProblem, min_gate_time

# Every @given test draws the same examples on every run and in every
# checkout: a seed derived from the test itself, and no example database
# replaying what an earlier run in this directory found.  Each test keeps its
# own max_examples.
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")

ACCEPTANCE_LOG: list[tuple[int, str, bool, str]] = []


def record_acceptance(number: int, title: str, passed: bool, detail: str = ""):
    ACCEPTANCE_LOG.append((number, title, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LOG:
        return
    terminalreporter.section("acceptance criteria")
    for number, title, passed, detail in sorted(ACCEPTANCE_LOG):
        status = "PASS" if passed else "FAIL"
        line = f"[{status}] criterion {number}: {title}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def gate_results():
    """Minimum-time X-gate searches at the three benchmark amplitudes."""
    out = {}
    for u in (0.5, 0.2, 0.1):
        out[u] = min_gate_time(GateProblem("x", ModelParams(u_max=u)))
    return out


@pytest.fixture(scope="session")
def ratio_grid(gate_results):
    """T*/T_Rabi on the 10-point amplitude grid, reusing the fixture points."""
    out = {}
    for u in np.linspace(0.05, 0.5, 10):
        u = float(round(u, 10))
        if u in gate_results:
            out[u] = gate_results[u].ratio
        else:
            out[u] = min_gate_time(GateProblem("x", ModelParams(u_max=u)),
                                   with_report=False).ratio
    return out
