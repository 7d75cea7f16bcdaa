"""The benchmark tracer's lookups resolve on the qoct modules it patches.

``perfbench/tracing.py`` wraps qoct functions by name when it is installed
(``--trace 1``); a name that no longer exists there only fails at that
point, so the names are checked here.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
LOOKUPS = ([(module, func) for module, funcs in tracing.TIMED.items() for func in funcs]
           + [("dynamics", func) for func in tracing.COST_FUNCS]
           + [("optim", "nelder_mead_restarts")])


@pytest.mark.parametrize("module, func", LOOKUPS, ids=[f"{m}.{f}" for m, f in LOOKUPS])
def test_traced_name_resolves(module, func):
    assert callable(getattr(importlib.import_module(f"qoct.{module}"), func))
