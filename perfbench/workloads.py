"""The benchmark's workloads: qoct CLI operations generated from a seed.

A workload is a list of operations, run one at a time (a closed loop with one
client).  An operation is one ``qoct`` command line, the files it must leave,
the exit code it must return, and the check of its outputs.  Amplitudes and
angles come from the seed through narrow bands, so every seed asks for the
same amount of work and finds comparable optima.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# band half-width, as a share of the band's centre amplitude
BAND = 0.005

# gate-search: (gate, centre u_max); the X bands give 4, 8 and 32 switchings
GATE_BANDS = (("x", 0.48), ("x", 0.20), ("x", 0.0502), ("y", 0.30), ("pt", 0.30))

# stateprep-search: the paper's problem, theta 0.7pi, phi 0 -> theta 0.35pi, phi pi,
# with one band inside the BB-6, BB-4 and BSB plateaus of the time-optimal
# structure.  The BB-2 plateau is left out: near u_max = 0.35 `qoct state-prep`
# exits 2 on some seeds (the report's re-optimized switch times touch 0 or T).
SP_BANDS = (("BB-6", 0.104), ("BB-4", 0.16), ("BSB", 0.85))
# Only the polar angles are jittered: with an azimuth other than 0 or pi,
# qoct's bang-singular-bang construction misses the equator and BSB is lost.
SP_INIT = (0.7 * math.pi, 0.0)
SP_TARGET = (0.35 * math.pi, math.pi)
THETA_JITTER = 0.001 * math.pi

# smooth-verify
SMOOTH_UMAX = 0.2
CONSTRAINED_T = 0.9
RABI_ROWS = 100_003  # prime to 4000, so no audit sample falls on a cell edge
RABI_BAND = (0.18, 0.20)
NAN_ROWS = 2000

GATE_FILES = ("gate_result.json", "pulse.csv", "report.json", "phi_hoc.csv", "run_record.json")
SP_FILES = ("search_result.json", "pulse.csv", "trajectory.csv", "run_record.json")
SMOOTH_FILES = ("pulse.csv", "spectrum.csv", "smoothing_run.json", "run_record.json")
VERIFY_FILES = ("report.json", "phi_hoc.csv", "run_record.json")


@dataclass(frozen=True)
class Op:
    """One qoct command and what it must produce."""

    name: str
    argv: Callable[[Path], list]      # pass directory -> arguments, without --out
    out_sub: str                      # subdirectory qoct writes under --out
    files: tuple = ()                 # artifacts that must exist
    absent: tuple = ()                # artifacts that must not exist
    expect_rc: int = 0
    check: Callable[[Path, Path], dict] | None = None  # (artifact dir, pass dir) -> info
    kind: str = ""                    # key into checks.CORRUPTIONS


def _draw(rng, centre: float) -> float:
    return float(f"{centre * (1.0 + rng.uniform(-BAND, BAND)):.6g}")


def gate_search(rng, inputs: Path) -> list[Op]:
    ops = []
    for kind, centre in GATE_BANDS:
        u = _draw(rng, centre)
        ops.append(Op(
            name=f"xgate-{kind}-{u:g}",
            argv=lambda pd, kind=kind, u=u: ["xgate", f"--umax={u!r}", f"--gate={kind}"],
            out_sub="xgate", files=GATE_FILES, kind="gate",
            check=lambda out, pd, kind=kind, u=u: checks.check_gate(out, kind, u)))
    return ops


def stateprep_search(rng, inputs: Path) -> list[Op]:
    ops = []
    for label, centre in SP_BANDS:
        u = _draw(rng, centre)
        init = (SP_INIT[0] + rng.uniform(-THETA_JITTER, THETA_JITTER), SP_INIT[1])
        target = (SP_TARGET[0] + rng.uniform(-THETA_JITTER, THETA_JITTER), SP_TARGET[1])
        argv = ["state-prep", f"--theta-init={init[0]!r}", f"--phi-init={init[1]!r}",
                f"--theta-target={target[0]!r}", f"--phi-target={target[1]!r}", f"--umax={u!r}"]

        def check(out, pd, u=u, init=init, target=target, label=label):
            info = checks.check_state_prep(out, u, init, target)
            checks.require(info["structure"] == label,
                           f"u_max {u}: structure {info['structure']}, expected {label}")
            return info
        ops.append(Op(name=f"state-prep-{label}-{u:g}", argv=lambda pd, a=argv: list(a),
                      out_sub="state-prep", files=SP_FILES, kind="state-prep", check=check))
    return ops


def write_pulse(path: Path, values: np.ndarray, T: float):
    """A 't,u' pulse file in qoct's format: cell i holds values[i] from t_i = i T / n."""
    t = np.arange(len(values)) * (T / len(values))
    np.savetxt(path, np.column_stack([t, values]), fmt="%.12g", delimiter=",",
               header="t,u", comments="")


def rabi_pulse(amplitude: float, n: int, omega0: float = 2.0):
    """Resonant Rabi pi-pulse a cos(omega0 (t - T/2)), T = pi/a, sampled at cell midpoints."""
    T = math.pi / amplitude
    mids = (np.arange(n) + 0.5) * (T / n)
    return amplitude * np.cos(omega0 * (mids - T / 2.0)), T


def smooth_verify(rng, inputs: Path) -> list[Op]:
    umax = f"--umax={SMOOTH_UMAX!r}"
    rabi = inputs / "rabi.csv"
    write_pulse(rabi, *rabi_pulse(float(rng.uniform(*RABI_BAND)), RABI_ROWS))
    # the same file for every seed: its verify fails until pulse reading rejects NaN
    nan = inputs / "nan.csv"
    values, T = rabi_pulse(SMOOTH_UMAX, NAN_ROWS)
    values[NAN_ROWS // 2] = np.nan
    write_pulse(nan, values, T)

    def constrained_pulse(pd):
        return pd / "smooth-constrained" / "smooth" / "pulse.csv"

    return [
        Op(name="smooth-constrained",
           argv=lambda pd: ["smooth", "--scheme=constrained", umax,
                            f"--t-over-trabi={CONSTRAINED_T!r}", "--initial=rabi", "--nt=1000"],
           out_sub="smooth", files=SMOOTH_FILES + ("trace.csv",), kind="constrained",
           check=lambda out, pd: checks.check_constrained(out, SMOOTH_UMAX, CONSTRAINED_T)),
        Op(name="smooth-third", argv=lambda pd: ["smooth", "--scheme=third", umax],
           out_sub="smooth", files=SMOOTH_FILES, kind="third",
           check=lambda out, pd: checks.check_third(out, SMOOTH_UMAX)),
        Op(name="verify-constrained",
           argv=lambda pd: ["verify", f"--pulse={constrained_pulse(pd)}", umax, "--cost=x"],
           out_sub="verify", files=VERIFY_FILES, kind="verify",
           check=lambda out, pd: checks.check_verify(out, constrained_pulse(pd), SMOOTH_UMAX)),
        Op(name="verify-rabi",
           argv=lambda pd: ["verify", f"--pulse={rabi}", umax, "--cost=x"],
           out_sub="verify", files=VERIFY_FILES, kind="verify",
           check=lambda out, pd: checks.check_verify(out, rabi, SMOOTH_UMAX)),
        Op(name="verify-nan",
           argv=lambda pd: ["verify", f"--pulse={nan}", umax, "--cost=x"],
           out_sub="verify", absent=("report.json",), expect_rc=2),
    ]


WORKLOADS = {
    "gate-search": gate_search,
    "stateprep-search": stateprep_search,
    "smooth-verify": smooth_verify,
}
