"""Checks of qoct's artifacts against the independent propagator in oracle.py.

Each check reads the files one CLI run wrote and raises CheckError on the
first property that does not hold.  The properties come from the paper and
from qoct's documented formats, never from a stored copy of an earlier
output.  Each check returns the figures the benchmark reports (the time found
by a search, in units of T_Rabi).  ``CORRUPTIONS`` damages one artifact per
check, so that a run can show each check is able to fail.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import oracle

GATE_GAP = 1e-6        # C + 1 of a gate, and 1 - fidelity of a state transfer
FILE_GAP = 1e-4        # the same, for a bang protocol resampled onto 2001 rows
BOUND_SLACK = 1e-12    # |u| <= u_max, as qoct's own pulse reader allows
LAMBDA0_RTOL = 1e-6


class CheckError(Exception):
    """An artifact does not have a property it must have."""


def require(cond, message: str):
    if not cond:
        raise CheckError(message)


def _reject_constant(name):
    raise CheckError(f"non-finite value {name} in a JSON artifact")


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text(), parse_constant=_reject_constant)


def read_pulse(path: Path):
    """(values, T) of a 't,u' pulse file: cell i holds values[i] on [t_i, t_i + dt)."""
    lines = Path(path).read_text().splitlines()
    require(lines and lines[0] == "t,u", f"{path}: header is not 't,u'")
    data = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    require(data.ndim == 2 and data.shape[1] == 2 and len(data) >= 2,
            f"{path}: fewer than two rows")
    require(np.all(np.isfinite(data)), f"{path}: non-finite value")
    t, u = data[:, 0], data[:, 1]
    return u, float(t[-1] + (t[1] - t[0]))


def _cells_total(values, T):
    """Total propagator of a uniform grid of cells on [0, T]."""
    return oracle.product(oracle.cell_propagators(np.full(len(values), T / len(values)), values))


def _bangs_total(switch_times, values, T):
    """Total propagator of a piecewise-constant control given by its switch times."""
    return oracle.product(oracle.cell_propagators(*oracle.bang_cells(switch_times, values, T)))


def _sign_changes(values) -> int:
    s = np.sign(values)
    s = s[s != 0]
    return int(np.count_nonzero(s[1:] != s[:-1]))


def _check_bound(values, u_max, where):
    require(np.max(np.abs(values)) <= u_max + BOUND_SLACK, f"{where}: |u| exceeds u_max")


def _check_rows_match(values, T, switch_times, seg_values, where):
    """Each row equals the protocol at its cell midpoint, except rows holding a switch."""
    n = len(values)
    dt = T / n
    mids = (np.arange(n) + 0.5) * dt
    seg = np.searchsorted(np.asarray(switch_times, dtype=float), mids, side="right")
    expect = np.asarray(seg_values, dtype=float)[seg]
    bad = np.flatnonzero(np.abs(values - expect) > 1e-9)
    edges = np.floor(np.asarray(switch_times, dtype=float) / dt).astype(int)
    require(np.all(np.isin(bad, edges)), f"{where}: rows disagree with the protocol "
            f"at {len(bad)} cells")


# --- gates --------------------------------------------------------------------


def square_wave(omega: float, T: float, u_max: float, sign: int, parity: str):
    """Switch times and bang values of u = sign u_max Sgn[cos or sin(omega (t - T/2))]."""
    half = T / 2.0
    k = np.arange(int(omega * half / math.pi) + 2)
    if parity == "even":
        pos = (math.pi / 2.0 + math.pi * k) / omega
        pos = pos[pos < half]
        offs = np.concatenate([-pos[::-1], pos])
        carrier = np.cos
    else:
        pos = math.pi * (k + 1) / omega
        pos = pos[pos < half]
        offs = np.concatenate([-pos[::-1], [0.0], pos])
        carrier = np.sin
    bounds = np.concatenate([[0.0], half + offs, [T]])
    mids = 0.5 * (bounds[:-1] + bounds[1:]) - half
    return half + offs, sign * u_max * np.sign(carrier(omega * mids))


def check_gate(out: Path, kind: str, u_max: float) -> dict:
    res = read_json(out / "gate_result.json")
    proto = res["protocol"]
    require(proto["variant"] == "OneParamBB", "gate protocol is not a square wave")
    p = proto["params"]
    T = float(res["t_star"])
    require(abs(proto["T"] - T) <= 1e-9 * T, "protocol T differs from t_star")
    switches, vals = square_wave(p["omega_eff"], T, u_max, p["sign"], p["parity"])
    gap = oracle.gate_gap(_bangs_total(switches, vals, T), kind)
    require(gap <= GATE_GAP, f"{kind} gate C+1 = {gap:.3e} > {GATE_GAP}")
    require(res["n_switch"] == len(switches), "n_switch differs from the square wave")

    t_rabi = math.pi / u_max
    ratio = T / t_rabi
    require(abs(res["ratio"] - ratio) <= 1e-9, "ratio is not t_star / T_Rabi")
    require(0.75 <= ratio <= 0.85, f"T*/T_Rabi = {ratio:.4f} outside [0.75, 0.85]")

    values, T_file = read_pulse(out / "pulse.csv")
    _check_bound(values, u_max, "gate pulse")
    require(np.all(np.abs(np.abs(values) - u_max) <= BOUND_SLACK), "gate pulse is not bang-bang")
    require(_sign_changes(values) == res["n_switch"],
            "switch count differs from the sign changes in pulse.csv")
    require(abs(T_file - T) <= 1e-9 * T, "pulse.csv does not span t_star")
    _check_rows_match(values, T_file, switches, vals, "gate pulse")
    file_gap = oracle.gate_gap(_cells_total(values, T_file), kind)
    require(file_gap <= FILE_GAP, f"pulse.csv C+1 = {file_gap:.3e} > {FILE_GAP}")

    for name in ("report.json", "gate_result.json"):
        rep = read_json(out / name)
        rep = rep["report"] if name == "gate_result.json" else rep
        require(rep["sign_fraction"] >= 0.999, f"{name}: sign_fraction {rep['sign_fraction']}")
        require(rep["hoc_max_dev"] < 1e-8, f"{name}: hoc_max_dev {rep['hoc_max_dev']}")
    return {"t_ratio": ratio}


# --- state preparation --------------------------------------------------------


def structure_of(values, u_max: float) -> str:
    """Label of a segment list: BSB for bang-zero-bang, BB-k for k alternating switches."""
    v = np.asarray(values, dtype=float)
    require(np.all(np.min(np.abs(v[:, None] - np.array([u_max, -u_max, 0.0])), axis=1)
                   <= BOUND_SLACK), "segment values outside {+u_max, -u_max, 0}")
    if len(v) == 3 and v[1] == 0.0 and v[0] != 0.0 and v[2] != 0.0:
        return "BSB"
    require(np.all(v != 0.0), "a zero segment outside a BSB structure")
    require(np.all(np.sign(v[1:]) != np.sign(v[:-1])), "neighbouring bangs share a sign")
    return f"BB-{len(v) - 1}"


def check_state_prep(out: Path, u_max: float, init, target) -> dict:
    res = read_json(out / "search_result.json")
    require(res["found"] is True, "search reports no protocol")
    T = float(res["t_star"])
    switches = np.asarray(res["switch_times"], dtype=float)
    require(np.all(np.diff(np.concatenate([[0.0], switches, [T]])) > 0.0),
            "switch times are not increasing inside (0, T*)")
    label = structure_of(res["values"], u_max)
    require(label == res["structure"], f"structure {res['structure']} but segments give {label}")
    psi_i, psi_t = oracle.bloch_state(*init), oracle.bloch_state(*target)
    total = _bangs_total(switches, res["values"], T)
    miss = 1.0 - oracle.transfer_fidelity(total, psi_i, psi_t)
    require(miss <= GATE_GAP, f"1 - fidelity = {miss:.3e} > {GATE_GAP}")

    values, T_file = read_pulse(out / "pulse.csv")
    _check_bound(values, u_max, "state-prep pulse")
    require(abs(T_file - T) <= 1e-9 * T, "pulse.csv does not span t_star")
    _check_rows_match(values, T_file, switches, res["values"], "state-prep pulse")
    miss_file = 1.0 - oracle.transfer_fidelity(_cells_total(values, T_file), psi_i, psi_t)
    require(miss_file <= FILE_GAP, f"pulse.csv 1 - fidelity = {miss_file:.3e} > {FILE_GAP}")
    return {"t_ratio": T * u_max / math.pi, "structure": label}


# --- smoothing ----------------------------------------------------------------


def third_harmonic(omega: float, ratio: float, T: float, u_max: float, t):
    """u_max [(1 - R) cos(omega s) + R cos(3 omega s)], s = t - T/2."""
    s = np.asarray(t, dtype=float) - T / 2.0
    return u_max * ((1.0 - ratio) * np.cos(omega * s) + ratio * np.cos(3.0 * omega * s))


def check_third(out: Path, u_max: float) -> dict:
    run = read_json(out / "smoothing_run.json")
    require(run["scheme"] == "third", "smoothing run is not the third-harmonic scheme")
    T, omega, ratio = float(run["T"]), run["extras"]["omega"], run["extras"]["ratio"]
    t_rabi = math.pi / u_max
    require(-0.125 - 1e-12 <= ratio < 0.0, f"R = {ratio} outside [-1/8, 0)")
    require(T < t_rabi, f"T = {T / t_rabi:.4f} T_Rabi is not below T_Rabi")
    require(abs(run["t_over_trabi"] - T / t_rabi) <= 1e-9, "t_over_trabi is not T / T_Rabi")
    # midpoint cells at twice qoct's default density
    n = math.ceil(16000 * T / math.pi)
    mids = (np.arange(n) + 0.5) * (T / n)
    gap = oracle.gate_gap(_cells_total(third_harmonic(omega, ratio, T, u_max, mids), T), "x")
    require(gap <= GATE_GAP, f"third-harmonic C+1 = {gap:.3e} > {GATE_GAP}")

    values, T_file = read_pulse(out / "pulse.csv")
    _check_bound(values, u_max, "third-harmonic pulse")
    require(abs(T_file - T) <= 1e-9 * T, "pulse.csv does not span T")
    rows = (np.arange(len(values)) + 0.5) * (T / len(values))
    require(np.max(np.abs(values - third_harmonic(omega, ratio, T, u_max, rows))) <= 1e-9,
            "pulse.csv rows differ from the third-harmonic formula")
    return {"t_ratio": T / t_rabi}


def check_constrained(out: Path, u_max: float, t_over_trabi: float) -> dict:
    run = read_json(out / "smoothing_run.json")
    require(run["scheme"] == "constrained", "smoothing run is not the constrained scheme")
    T = float(run["T"])
    require(abs(T - t_over_trabi * math.pi / u_max) <= 1e-9 * T, "T is not the requested time")
    values, T_file = read_pulse(out / "pulse.csv")
    require(len(values) == run["extras"]["n_t"], "pulse.csv row count differs from n_t")
    require(abs(T_file - T) <= 1e-9 * T, "pulse.csv does not span T")
    _check_bound(values, u_max, "constrained pulse")
    gap = oracle.gate_gap(_cells_total(values, T_file), "x")
    require(gap <= GATE_GAP, f"constrained pulse C+1 = {gap:.3e} > {GATE_GAP}")
    return {}


# --- verify -------------------------------------------------------------------


def check_verify(out: Path, pulse: Path, u_max: float) -> dict:
    """The audit of a smooth pulse: finite figures and lambda0 recomputed independently."""
    rep = read_json(out / "report.json")
    for key in ("lambda0", "hoc_max_dev", "sign_fraction", "singular_residence"):
        require(isinstance(rep.get(key), (int, float)), f"report.json: {key} missing")
    require(rep["A"] is None and rep["omega_eff"] is None,
            "report.json fits a bang frequency to a smooth pulse")
    require(0.0 <= rep["sign_fraction"] <= 1.0, "sign_fraction outside [0, 1]")
    values, T = read_pulse(pulse)
    _check_bound(values, u_max, "verified pulse")
    ref = oracle.x_gate_lambda0(values, T)
    require(abs(rep["lambda0"] - ref) <= 1e-12 + LAMBDA0_RTOL * abs(ref),
            f"lambda0 {rep['lambda0']} differs from the independent {ref}")
    return {}


# --- corruptions --------------------------------------------------------------


def _flip_bang(out: Path):
    """Negate the rows of one stretch of pulse.csv (a bang, for a bang pulse)."""
    path = out / "pulse.csv"
    lines = path.read_text().splitlines()
    rows = lines[1:]
    s = np.sign([float(r.split(",")[1]) for r in rows])
    starts = np.flatnonzero(np.concatenate([[True], s[1:] != s[:-1]]))
    lo = int(starts[1]) if len(starts) > 2 else len(rows) // 3
    hi = int(starts[2]) if len(starts) > 2 else 2 * len(rows) // 3
    for i in range(lo, hi):
        t, u = rows[i].split(",")
        rows[i] = f"{t},{-float(u):.12g}"
    path.write_text("\n".join([lines[0]] + rows) + "\n")


def _shift_switch(out: Path):
    path = out / "search_result.json"
    res = json.loads(path.read_text())
    times = res["switch_times"]
    gap = (times[1] if len(times) > 1 else res["t_star"]) - times[0]
    times[0] += 0.25 * gap
    path.write_text(json.dumps(res))


def _nan_in(name: str, key):
    def corrupt(out: Path):
        path = out / name
        obj = json.loads(path.read_text())
        target = obj
        for k in key[:-1]:
            target = target[k]
        target[key[-1]] = float("nan")
        path.write_text(json.dumps(obj))
    return corrupt


CORRUPTIONS = {
    "gate": ("a flipped bang in pulse.csv", _flip_bang),
    "state-prep": ("a shifted switch time", _shift_switch),
    "third": ("NaN for R in smoothing_run.json", _nan_in("smoothing_run.json", ("extras", "ratio"))),
    "constrained": ("a flipped stretch of pulse.csv", _flip_bang),
    "verify": ("NaN for lambda0 in report.json", _nan_in("report.json", ("lambda0",))),
}
