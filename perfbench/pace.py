"""The host's speed, sampled on the benchmark's own thread while qoct runs.

A guest on a shared host does not run at one speed: on the 2-vCPU guest the
benchmark was set on, a fixed numpy loop runs at speeds up to ~1.8x apart,
switching within seconds, in proportions that change over minutes, and CPU
time follows wall time.  A pass of a workload then reads up to a third slower
or faster from one run to the next with no change to qoct.

``Pace`` times a fixed reference task -- a prefix loop of 2x2 products over
indexed numpy arrays, the inner loop of qoct's propagators and gradients,
written here without qoct code, so that it does not change with qoct -- at the
start of every operation and then every ``PERIOD`` seconds of wall time from a
``SIGALRM`` handler, so the samples fall inside the operations, on the same
thread and CPU.  The time the samples take is kept apart, so that it can be
taken out of the operations' time.  ``factor()`` is the host's mean speed over
the samples taken since the last ``reset()``, relative to the speed at which
the reference task takes ``REF_S``; a time multiplied by it is the time the
same work would take at that reference speed.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD = 0.2        # seconds of wall time between samples
REF_CELLS = 1000    # cells of the reference task's prefix loop
REF_S = 0.003       # the reference task's time at the reference speed

_CELLS = np.tile(np.array([[0.6, 0.8j], [0.8j, 0.6]]), (REF_CELLS, 1, 1))


def reference_task() -> np.ndarray:
    """A fixed amount of work: a state carried through REF_CELLS 2x2 unitaries."""
    psi = np.empty((REF_CELLS + 1, 2), dtype=complex)
    psi[0] = (1.0, 0.0)
    for k in range(REF_CELLS):
        psi[k + 1] = _CELLS[k] @ psi[k]
    return psi


class Pace:
    """Samples the reference task's time; see the module docstring."""

    def __init__(self):
        self.speeds: list[float] = []   # REF_S / sample time, since reset()
        self.spent_wall = 0.0           # wall time of all samples so far
        self.spent_cpu = 0.0            # CPU time of all samples so far
        self._running = False

    def sample(self, *_):
        c0, t0 = time.process_time(), time.perf_counter()
        reference_task()
        dt = time.perf_counter() - t0
        self.spent_wall += dt
        self.spent_cpu += time.process_time() - c0
        self.speeds.append(REF_S / dt)

    def start(self):
        """Sample now and then every PERIOD seconds until stop()."""
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self._running = True

    def stop(self):
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._running = False

    def reset(self):
        self.speeds = []

    def factor(self) -> float:
        return statistics.fmean(self.speeds)
