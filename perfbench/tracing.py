"""Span tracing of qoct's modules from outside the program.

``Tracer.install`` wraps the public functions listed in ``TIMED`` and patches
each wrapper onto every name in a ``qoct`` module that refers to the original
function (``qoct.xgate.segment_propagators`` as well as
``qoct.dynamics.segment_propagators``), so calls between modules are caught.
Every call records a span: name, start, end, parent span and operation.
Spans are kept in compact arrays and written when the run ends.  The cost
functions (``COST_FUNCS``) are only counted, because a span would cost more
than the call, and ``optim.nelder_mead_restarts`` is wrapped only to tell
the Nelder-Mead run a restart set returned from the runs it discarded.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

TIMED = {
    "cli": ("main",),
    "fileio": ("write_csv", "write_json", "read_pulse_csv"),
    "xgate": ("min_gate_time", "optimize_omega_eff", "one_param_cost"),
    "state_prep": ("find_time_optimal", "optimize_structure", "report_near_optimum",
                   "bsb_candidates"),
    "smoothing": ("constrained_smooth_optimize", "project_to_gate", "min_third_harmonic_time",
                  "optimize_third_harmonic", "fourier_spectrum"),
    "optim": ("nelder_mead", "scalar_minimize", "golden_section", "projected_gradient"),
    "pmp": ("cost_and_gradient", "audit"),
    "protocols": ("segment_durations_values", "as_sampled"),
    "dynamics": ("segment_propagators", "ordered_product", "total_unitary", "propagate"),
}
# counted, not timed: one terminal-cost evaluation each
COST_FUNCS = ("gate_cost", "state_prep_cost", "terminal_cost")

# per-layer metrics beyond calls / s / self_s: name -> (unit, better)
EXTRA = {
    "dynamics.segments": ("count", "lower"),
    "dynamics.segments_per_call": ("count", "higher"),
    "dynamics.cost_evals": ("count", "lower"),
    "optim.nelder_mead.evals": ("count", "lower"),
    "optim.nelder_mead.converged_ratio": ("1", "higher"),
    "optim.nelder_mead.useful_ratio": ("1", "higher"),
    "optim.projected_gradient.evals": ("count", "lower"),
    "smoothing.constrained_smooth_optimize.outer_iters": ("count", "lower"),
    "fileio.bytes_written": ("B", "lower"),
    "fileio.rows_read": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead": ("1", "lower"),
    "trace.spans": ("count", "lower"),
}


def layer_metric_specs() -> dict:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    specs = {}
    for module, funcs in TIMED.items():
        for func in funcs:
            base = f"{module}.{func}"
            specs[f"{base}.calls"] = ("count", "lower")
            specs[f"{base}.s"] = ("s", "lower")
            specs[f"{base}.self_s"] = ("s", "lower")
    specs.update(EXTRA)
    return specs


class Tracer:
    """Records spans and counters for the qoct calls made while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_op = -1
        self.counts = dict.fromkeys(
            ("segments", "cost_evals", "nm_runs", "nm_evals", "nm_converged", "nm_useful",
             "pg_evals", "outer_iters", "bytes_written", "rows_read"), 0)
        self._in_cost = False
        self._in_restarts = False
        self._plan = None
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        stack, name_of, parent, op = self.stack, self.name_of, self.parent, self.op
        start, end = self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            stack.append(idx)
            end.append(0.0)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _count_cost(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_cost:  # terminal_cost -> gate_cost is one evaluation
                return fn(*args, **kwargs)
            counts["cost_evals"] += 1
            self._in_cost = True
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_cost = False
        return wrapper

    def _restart_set(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = self._in_restarts
            self._in_restarts = True
            try:
                result = fn(*args, **kwargs)
            finally:
                self._in_restarts = outer
            if not outer:  # the one run whose result the set returned
                self.counts["nm_useful"] += 1
            return result
        return wrapper

    def _after(self, key: str):
        c = self.counts
        if key == "dynamics.segment_propagators":
            def after(args, kwargs, result):
                c["segments"] += int(np.size(args[0] if args else kwargs["durations"]))
        elif key == "optim.nelder_mead":
            def after(args, kwargs, result):
                c["nm_runs"] += 1
                c["nm_evals"] += result.n_eval
                c["nm_converged"] += result.status == "converged"
                if not self._in_restarts:
                    c["nm_useful"] += 1
        elif key == "optim.projected_gradient":
            def after(args, kwargs, result):
                c["pg_evals"] += result.n_eval
        elif key == "smoothing.constrained_smooth_optimize":
            def after(args, kwargs, result):
                c["outer_iters"] += result.extras["n_outer"]
        elif key in ("fileio.write_csv", "fileio.write_json"):
            def after(args, kwargs, result):
                c["bytes_written"] += Path(result).stat().st_size
        elif key == "fileio.read_pulse_csv":
            def after(args, kwargs, result):
                c["rows_read"] += len(result[0])
        else:
            after = None
        return after

    # -- patching ----------------------------------------------------------

    def _build_plan(self):
        plan = []
        for module, funcs in TIMED.items():
            owner = sys.modules[f"qoct.{module}"]
            for func in funcs:
                key = f"{module}.{func}"
                orig = getattr(owner, func)
                plan.append((orig, self._span(key, orig, self._after(key))))
        for func in COST_FUNCS:
            orig = getattr(sys.modules["qoct.dynamics"], func)
            plan.append((orig, self._count_cost(orig)))
        orig = sys.modules["qoct.optim"].nelder_mead_restarts
        plan.append((orig, self._restart_set(orig)))
        return plan

    def install(self):
        """Patch every wrapper onto each qoct name bound to its original."""
        if self._plan is None:
            self._plan = self._build_plan()
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qoct" or name.startswith("qoct."))]
        for orig, wrapper in self._plan:
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._patches.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._patches):
            setattr(m, attr, orig)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def arrays(self):
        return (np.array(self.name_of), np.array(self.parent),
                np.array(self.start), np.array(self.end))

    def layer_metrics(self, n_passes: int) -> dict:
        """Per-pass figures for every metric in ``layer_metric_specs`` except trace.*."""
        name_of, parent, start, end = self.arrays()
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(name_of, minlength=k)
        incl = np.bincount(name_of, weights=dur, minlength=k)
        excl = np.bincount(name_of, weights=self_time, minlength=k)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i] / n_passes
            out[f"{name}.s"] = incl[i] / n_passes
            out[f"{name}.self_s"] = excl[i] / n_passes
        c = {key: val / n_passes for key, val in self.counts.items()}
        sp_calls = out["dynamics.segment_propagators.calls"]
        out.update({
            "dynamics.segments": c["segments"],
            "dynamics.segments_per_call": c["segments"] / sp_calls if sp_calls else 0.0,
            "dynamics.cost_evals": c["cost_evals"],
            "optim.nelder_mead.evals": c["nm_evals"],
            "optim.nelder_mead.converged_ratio":
                c["nm_converged"] / c["nm_runs"] if c["nm_runs"] else 0.0,
            "optim.nelder_mead.useful_ratio": c["nm_useful"] / c["nm_runs"] if c["nm_runs"] else 0.0,
            "optim.projected_gradient.evals": c["pg_evals"],
            "smoothing.constrained_smooth_optimize.outer_iters": c["outer_iters"],
            "fileio.bytes_written": c["bytes_written"],
            "fileio.rows_read": c["rows_read"],
            "cli.self_s": out["cli.main.self_s"],
            "trace.spans": len(dur) / n_passes,
        })
        return out

    def save(self, path: Path):
        name_of, parent, start, end = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name=name_of, parent=parent,
                 op=np.array(self.op), start=start, end=end)
