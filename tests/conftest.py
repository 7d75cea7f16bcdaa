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
# `pytest --hypothesis-profile=explore` looks for new counterexamples instead:
# fresh random draws, EXPLORE_SCALE times each test's own max_examples, and the
# example database in .hypothesis/, which replays what earlier explore runs
# found.  A counterexample it reports is pinned with @example on its test, so
# that the repeatable profile runs it too.
settings.register_profile("explore", derandomize=False)
settings.load_profile("repeatable")
EXPLORE_SCALE = 10


def pytest_collection_modifyitems(config, items):
    """Under the explore profile, scale every @given test's max_examples by EXPLORE_SCALE.

    A test's own @settings outrank any profile, so the scaled settings are
    set on each test function once, however many parametrized items share it.
    """
    if settings.get_current_profile_name() != "explore":
        return
    scaled = set()
    for item in items:
        test = getattr(item, "function", None)
        if not getattr(test, "is_hypothesis_test", False) or id(test) in scaled:
            continue
        scaled.add(id(test))
        own = test._hypothesis_internal_use_settings
        test._hypothesis_internal_use_settings = settings(
            own, max_examples=EXPLORE_SCALE * own.max_examples)

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
