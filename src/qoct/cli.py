"""Command-line front end.

Subcommands map one-to-one onto the library workflows; every run writes its
artifacts plus a run_record.json (resolved config, version, wall time and
output manifest) into the output directory.  Exit codes: 0 success,
2 validation error, 3 optimization failure.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, dynamics, fileio, pmp, smoothing, state_prep, xgate
from .dynamics import BlochPoint, ModelParams, bloch_angles, propagate, state_from_bloch
from .pmp import CostSpec
from .protocols import protocol_to_dict
from .state_prep import StatePrepProblem, StructureLabel
from .xgate import GateProblem


def _angle(text: str) -> float:
    """Angle literal: plain radians, or a multiple of pi like '0.7pi' or '-pi'."""
    s = text.strip().lower()
    if s.endswith("pi"):
        factor = s[:-2]
        return float(factor + "1" if factor in ("", "+", "-") else factor) * np.pi
    return float(s)


def _parse_sweep(text: str) -> np.ndarray:
    try:
        lo, hi, n = text.split(":")
        if int(n) < 1:
            raise ValueError
        return np.linspace(float(lo), float(hi), int(n))
    except ValueError:
        raise argparse.ArgumentTypeError("sweep must be lo:hi:n with n >= 1") from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qoct",
                                description="time-optimal qubit control toolkit")
    p.add_argument("--version", action="version", version=f"qoct {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--config", default=None, action=_ConfigFile,
                        help="JSON file with defaults for this subcommand")

    sp = sub.add_parser("state-prep", help="time-optimal state preparation search")
    sp.add_argument("--theta-init", type=_angle, required=True)
    sp.add_argument("--phi-init", type=_angle, required=True)
    sp.add_argument("--theta-target", type=_angle, required=True)
    sp.add_argument("--phi-target", type=_angle, required=True)
    sp.add_argument("--umax", type=float, required=True)
    sp.add_argument("--tmax", type=_angle, default=None)
    sp.add_argument("--structures", nargs="*", default=None,
                    help="candidates like BB-2 BB-4 BSB (default: enumerate)")
    common(sp)

    sp = sub.add_parser("xgate", help="minimum-time gate search")
    sp.add_argument("--umax", type=float, required=True)
    sp.add_argument("--gate", choices=["x", "y", "pt"], default="x")
    common(sp)

    sp = sub.add_parser("sweep", help="u_max sweep of the gate search")
    sp.add_argument("--umax", type=_parse_sweep, required=True, metavar="lo:hi:n")
    sp.add_argument("--gate", choices=["x", "y", "pt"], default="x")
    common(sp)

    sp = sub.add_parser("smooth", help="fidelity-preserving pulse smoothing")
    sp.add_argument("--scheme", choices=["tanh", "third", "constrained"], required=True)
    sp.add_argument("--umax", type=float, required=True)
    sp.add_argument("--t-over-trabi", type=float, default=None,
                    help="evolution time in units of T_Rabi (default: minimize)")
    sp.add_argument("--beta", type=float, default=4.0)
    sp.add_argument("--nt", type=int, default=1000)
    sp.add_argument("--objective", default="smooth",
                    help="smooth | power | mixed:w")
    sp.add_argument("--initial", default="bb", help="bb | rabi (constrained scheme)")
    common(sp)

    sp = sub.add_parser("verify", help="PMP audit of an external pulse file")
    sp.add_argument("--pulse", required=True)
    sp.add_argument("--umax", type=float, required=True)
    sp.add_argument("--cost", choices=["x", "y", "pt", "sp"], default="x")
    sp.add_argument("--theta-init", type=_angle, default=None)
    sp.add_argument("--phi-init", type=_angle, default=None)
    sp.add_argument("--theta-target", type=_angle, default=None)
    sp.add_argument("--phi-target", type=_angle, default=None)
    common(sp)

    sp = sub.add_parser("spectrum", help="Fourier spectrum of a pulse file")
    sp.add_argument("--pulse", required=True)
    sp.add_argument("--umax", type=float, default=None,
                    help="normalization amplitude (default: max|u|)")
    sp.add_argument("--nmax", type=int, default=40)
    common(sp)

    sp = sub.add_parser("repro", help="regenerate a benchmark figure dataset")
    sp.add_argument("recipe", choices=sorted(RECIPES))
    common(sp)

    return p


class _ConfigFile(argparse.Action):
    """``--config FILE``: the file's entries become the subcommand's defaults.

    Explicit flags must win over the file wherever they appear on the command
    line, so ``main`` parses a second time once the defaults are in place.
    argparse applies a flag's ``type`` only to string defaults, so each
    entry is parsed here as the command line parses its flag: a JSON string
    or number is the flag's string, a JSON list the strings of a flag that
    takes several (each parsed alone), null leaves the flag's default, and
    a value the flag would refuse exits 2 naming its key, as does a key that
    names no flag of the subcommand.  A flag the file gives is no longer
    required on the command line.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        try:
            cfg = json.loads(Path(values).read_text())
        except (OSError, ValueError) as exc:
            parser.error(f"{option_string}: {exc}")
        if not isinstance(cfg, dict):
            parser.error(f"{option_string}: expected a JSON object")
        actions = {a.dest: a for a in parser._actions if hasattr(namespace, a.dest)}
        defaults = {}
        for key, value in cfg.items():
            action = actions.get(key.replace("-", "_"))
            if action is None:
                parser.error(f"{option_string} {values}: {key!r} names no flag of {parser.prog}")
            if value is not None:
                try:
                    defaults[action.dest] = _config_value(action, value)
                except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
                    parser.error(f"{option_string} {values}: {key!r}: {exc}")
                action.required = False
        parser.set_defaults(**defaults)
        setattr(namespace, self.dest, values)


def _config_value(action: argparse.Action, value):
    """A config file's ``value`` for ``action``, parsed as its command-line strings would be."""
    several = action.nargs is not None
    items = value if several and isinstance(value, list) else [value]
    if not all(type(v) in (str, int, float) for v in items):
        raise ValueError(f"{value!r} is not a string or a number")
    parsed = [action.type(str(v)) if action.type is not None else str(v) for v in items]
    if action.choices is not None and any(v not in action.choices for v in parsed):
        raise ValueError(f"{value!r} is not in {list(action.choices)}")
    return parsed if several else parsed[0]


class _Record:
    def __init__(self, cmd: str, args: argparse.Namespace):
        self.cmd = cmd
        self.out = fileio.default_out_dir(getattr(args, "out", None)) / cmd
        self.t0 = time.perf_counter()
        self.files: list[str] = []
        self.config = {k: v for k, v in vars(args).items() if k not in ("cmd", "config")}
        self.config["config_file"] = args.config

    def path(self, name: str) -> Path:
        self.files.append(name)
        return self.out / name

    def finish(self) -> Path:
        rec = {"subcommand": self.cmd, "config": self.config, "version": __version__,
               "duration_s": time.perf_counter() - self.t0, "outputs": sorted(set(self.files))}
        return fileio.write_json(self.out / "run_record.json", rec)


def _parse_structures(names):
    if not names:
        return None
    out = []
    for name in names:
        token = name.strip().upper()
        if token == "BSB":
            out.append(StructureLabel("bsb", 2, 1))
        elif token.startswith("BB-"):
            k = int(token[3:])
            out.extend([StructureLabel("bb", k, 1), StructureLabel("bb", k, -1)])
        else:
            raise ValueError(f"unknown structure {name!r} (use BB-<k> or BSB)")
    return out


def cmd_state_prep(args) -> int:
    rec = _Record("state-prep", args)
    params = ModelParams(u_max=args.umax)
    problem = StatePrepProblem(BlochPoint(args.theta_init, args.phi_init),
                               BlochPoint(args.theta_target, args.phi_target), params)
    res = state_prep.find_time_optimal(problem, structures=_parse_structures(args.structures),
                                       t_max=args.tmax)
    payload = {
        "found": res.found,
        "t_star": res.t_star,
        "structure": str(res.structure) if res.structure else None,
        "switch_times": list(res.switch_times),
        "values": list(res.values),
        "cost": res.cost,
        "residual": res.residual,
        "solver_steps": res.solver_steps,
        "diagnostics": {k: v for k, v in res.diagnostics.items() if k != "bsb"},
        "report": res.report.summary() if res.report else None,
    }
    fileio.write_json(rec.path("search_result.json"), payload)
    if res.found:
        proto = res.protocol()
        fileio.write_pulse_csv(rec.path("pulse.csv"), proto)
        traj = propagate(proto, params, problem.states()[0], n_samples=2001)
        fileio.write_csv(rec.path("trajectory.csv"), ["t", "theta", "phi"],
                         np.column_stack([traj.times, *bloch_angles(traj.states)]))
    rec.finish()
    print(json.dumps({k: payload[k] for k in ("found", "t_star", "structure", "cost")}))
    return 0 if res.found else 3


def _write_gate(rec: _Record, res) -> dict:
    """gate_result.json, pulse.csv and phi_hoc.csv of a gate search and its report.

    Returns the gate_result.json payload.
    """
    payload = {
        "t_star": res.t_star,
        "omega_eff": res.omega_eff,
        "ratio": res.ratio,
        "n_switch": res.n_switch,
        "parity": res.parity,
        "cost": res.cost,
        "residual": res.residual,
        "newton_steps": res.newton_steps,
        "protocol": protocol_to_dict(res.protocol),
        "report": res.report.summary(),
    }
    fileio.write_json(rec.path("gate_result.json"), payload)
    fileio.write_pulse_csv(rec.path("pulse.csv"), res.protocol.to_bang_sequence())
    fileio.write_csv(rec.path("phi_hoc.csv"), ["t", "phi", "hoc"],
                     np.column_stack((res.report.times, res.report.phi, res.report.hoc)))
    return payload


def _write_spectrum(rec: _Record, freqs, amps) -> None:
    """spectrum.csv: the lines (f, re, im, abs) of ``smoothing.fourier_spectrum``."""
    fileio.write_csv(rec.path("spectrum.csv"), ["f", "re", "im", "abs"],
                     np.array([(f, a.real, a.imag, abs(a)) for f, a in zip(freqs, amps)]))


def _run_sweep(rec: _Record, grid, gate: str) -> tuple[int, list[float]]:
    """Minimum gate time at every u_max of the grid, in increasing u_max, to sweep.csv.

    A search that fails leaves its row with empty cells and status 'failed'.
    Returns the number of rows and the amplitudes that failed.
    """
    rows, failed = [], []
    for u in sorted(float(u) for u in grid):
        try:
            res = xgate.min_gate_time(GateProblem(gate, ModelParams(u_max=u)),
                                      with_report=False)
        except RuntimeError as exc:
            print(f"u_max = {u:g}: {exc}", file=sys.stderr)
            rows.append((u, "", "", "", "", "failed"))
            failed.append(u)
            continue
        rows.append((u, res.t_star, res.ratio, res.omega_eff, res.n_switch, "ok"))
    fileio.write_csv(rec.path("sweep.csv"),
                     ["u_max", "t_star", "ratio", "omega_eff", "n_switch", "status"], rows)
    return len(rows), failed


def _sweep_failure(n: int, failed: list[float]) -> str:
    return f"{len(failed)} of {n} amplitudes failed: u_max = {', '.join(f'{u:g}' for u in failed)}"


def cmd_xgate(args) -> int:
    rec = _Record("xgate", args)
    problem = GateProblem(args.gate, ModelParams(u_max=args.umax))
    res = xgate.min_gate_time(problem)
    payload = _write_gate(rec, res)
    fileio.write_json(rec.path("report.json"), res.report.summary())
    rec.finish()
    print(json.dumps({k: payload[k] for k in ("t_star", "ratio", "omega_eff", "n_switch")}))
    return 0


def cmd_sweep(args) -> int:
    rec = _Record("sweep", args)
    n, failed = _run_sweep(rec, args.umax, args.gate)
    rec.finish()
    print(json.dumps({"points": n}))
    if failed:
        print(f"optimization failed: {_sweep_failure(n, failed)}", file=sys.stderr)
        return 3
    return 0


def cmd_smooth(args) -> int:
    if args.t_over_trabi is not None and not (np.isfinite(args.t_over_trabi)
                                              and args.t_over_trabi > 0):
        raise ValueError(f"--t-over-trabi must be finite and positive, got {args.t_over_trabi!r}")
    rec = _Record("smooth", args)
    params = ModelParams(u_max=args.umax)
    problem = GateProblem("x", params)
    t_rabi = dynamics.rabi_pi_time(params)
    if args.scheme == "tanh":
        if args.t_over_trabi is None:
            T, run = smoothing.min_tanh_time(problem, beta=args.beta)
        else:
            T = args.t_over_trabi * t_rabi
            n = smoothing.resonance_pairs(T, params)
            run = smoothing.optimize_tanh(n, args.beta, T, problem)
    elif args.scheme == "third":
        if args.t_over_trabi is None:
            T, run = smoothing.min_third_harmonic_time(problem)
        else:
            T = args.t_over_trabi * t_rabi
            run = smoothing.optimize_third_harmonic(T, problem)
    else:
        if args.t_over_trabi is None:
            raise ValueError("--t-over-trabi is required for the constrained scheme")
        T = args.t_over_trabi * t_rabi
        run = smoothing.constrained_smooth_optimize(T, problem, n_t=args.nt,
                                                    initial=args.initial,
                                                    objective=args.objective)
        fileio.write_csv(rec.path("trace.csv"), ["iter", "c_smooth", "c_x_plus_1"],
                         run.trace)
    fileio.write_pulse_csv(rec.path("pulse.csv"), run.protocol)
    _write_spectrum(rec, *smoothing.fourier_spectrum(run.protocol))
    payload = {"scheme": run.scheme, "T": run.T, "t_over_trabi": run.T / t_rabi,
               "cost_plus_1": run.cost_plus_1, "converged": run.converged,
               "extras": {k: v for k, v in run.extras.items()}}
    fileio.write_json(rec.path("smoothing_run.json"), payload)
    rec.finish()
    print(json.dumps({k: payload[k] for k in ("scheme", "t_over_trabi", "cost_plus_1")}))
    return 0 if run.converged or args.scheme == "constrained" else 3


def _cost_spec_from_args(args) -> CostSpec:
    if args.cost == "sp":
        needed = (args.theta_init, args.phi_init, args.theta_target, args.phi_target)
        if any(v is None for v in needed):
            raise ValueError("state-prep verification needs --theta/phi-init/target")
        return CostSpec("sp", init=state_from_bloch(BlochPoint(args.theta_init, args.phi_init)),
                        target=state_from_bloch(BlochPoint(args.theta_target, args.phi_target)))
    return CostSpec(args.cost)


def cmd_verify(args) -> int:
    rec = _Record("verify", args)
    t, u = fileio.read_pulse_csv(args.pulse)
    protocol = fileio.sampled_from_pulse(t, u, args.umax)
    params = ModelParams(u_max=args.umax)
    report = pmp.audit(protocol, params, _cost_spec_from_args(args))
    fileio.write_json(rec.path("report.json"), report.summary())
    fileio.write_csv(rec.path("phi_hoc.csv"), ["t", "phi", "hoc"],
                     np.column_stack((report.times, report.phi, report.hoc)))
    rec.finish()
    print(report.to_json())
    return 0


def cmd_spectrum(args) -> int:
    rec = _Record("spectrum", args)
    t, u = fileio.read_pulse_csv(args.pulse)
    umax = args.umax if args.umax is not None else float(np.max(np.abs(u))) or 1.0
    protocol = fileio.sampled_from_pulse(t, u, umax)
    freqs, amps = smoothing.fourier_spectrum(protocol, n_max=args.nmax)
    _write_spectrum(rec, freqs, amps)
    rec.finish()
    print(json.dumps({"n_lines": len(freqs)}))
    return 0


# --- repro recipes ---------------------------------------------------------


def _repro_rabi(rec: _Record):
    grid = np.linspace(0.01, 0.5, 50)
    rows = xgate.rabi_fidelity_curve(grid)
    fileio.write_csv(rec.path("rabi_fidelity.csv"), ["u_max", "c_x_plus_1"], rows)


def _repro_ratio(rec: _Record):
    grid = np.linspace(0.05, 0.5, 10)
    n, failed = _run_sweep(rec, grid, "x")
    if failed:
        raise RuntimeError(_sweep_failure(n, failed))


def _repro_gate_point(rec: _Record, umax: float):
    _write_gate(rec, xgate.min_gate_time(GateProblem("x", ModelParams(u_max=umax))))


def _repro_stateprep(rec: _Record):
    rows = []
    for u in (0.1, 0.11, 0.13, 0.16, 0.19, 0.25, 0.35, 0.5, 0.7, 0.85, 1.0):
        problem = StatePrepProblem(BlochPoint(0.7 * np.pi, 0.0),
                                   BlochPoint(0.35 * np.pi, np.pi),
                                   ModelParams(u_max=u))
        res = state_prep.find_time_optimal(problem, with_report=False)
        rows.append((u, res.t_star, str(res.structure),
                     res.diagnostics.get("singular_duration", 0.0)))
    fileio.write_csv(rec.path("stateprep_plateaus.csv"),
                     ["u_max", "t_star", "structure", "singular_duration"], rows)


def _repro_tanh(rec: _Record):
    rows = []
    for u in (0.1, 0.2, 0.3, 0.4, 0.5):
        problem = GateProblem("x", ModelParams(u_max=u))
        T, run = smoothing.min_tanh_time(problem, beta=4.0)
        rows.append((u, T / dynamics.rabi_pi_time(problem.params), run.cost_plus_1))
    fileio.write_csv(rec.path("tanh_min_times.csv"),
                     ["u_max", "t_over_trabi", "c_x_plus_1"], rows)


def _repro_spectra(rec: _Record, smoothed: bool):
    problem = GateProblem("x", ModelParams(u_max=0.2))
    if smoothed:
        T, run = smoothing.min_tanh_time(problem, beta=4.0)
        proto = run.protocol
    else:
        proto = xgate.min_gate_time(problem, with_report=False).protocol.to_bang_sequence()
    _write_spectrum(rec, *smoothing.fourier_spectrum(proto, n_max=60))


def _repro_third(rec: _Record):
    rows = []
    for u in np.linspace(0.05, 0.5, 10):
        problem = GateProblem("x", ModelParams(u_max=float(u)))
        T, run = smoothing.min_third_harmonic_time(problem)
        t_rabi = dynamics.rabi_pi_time(problem.params)
        rows.append((u, T / t_rabi, run.extras["omega"], run.extras["ratio"]))
    fileio.write_csv(rec.path("third_harmonic.csv"),
                     ["u_max", "t_over_trabi", "omega", "ratio"], rows)


def _repro_csmooth(rec: _Record):
    problem = GateProblem("x", ModelParams(u_max=0.2))
    t_rabi = dynamics.rabi_pi_time(problem.params)
    rows = []
    for frac in (0.8, 0.9, 1.0):
        run = smoothing.constrained_smooth_optimize(frac * t_rabi, problem, n_t=1000)
        rows.append((frac, run.extras["c_smooth"], run.cost_plus_1))
        fileio.write_pulse_csv(rec.path(f"pulse_{frac:.1f}.csv"), run.protocol)
    fileio.write_csv(rec.path("csmooth_vs_T.csv"),
                     ["t_over_trabi", "c_smooth", "c_x_plus_1"], rows)


RECIPES = {
    "fig2-rabi": _repro_rabi,
    "fig2-sp": _repro_stateprep,
    "fig3a": _repro_ratio,
    "fig3b": lambda rec: _repro_gate_point(rec, 0.5),
    "fig3c": lambda rec: _repro_gate_point(rec, 0.2),
    "fig3d": lambda rec: _repro_gate_point(rec, 0.1),
    "fig4a": _repro_third,
    "fig5a": _repro_tanh,
    "fig5b": lambda rec: _repro_spectra(rec, smoothed=False),
    "fig5c": lambda rec: _repro_spectra(rec, smoothed=True),
    "fig6": _repro_csmooth,
}


def cmd_repro(args) -> int:
    rec = _Record(f"repro-{args.recipe}", args)
    RECIPES[args.recipe](rec)
    rec.finish()
    print(json.dumps({"recipe": args.recipe, "out": str(rec.out)}))
    return 0


_DISPATCH = {
    "state-prep": cmd_state_prep,
    "xgate": cmd_xgate,
    "sweep": cmd_sweep,
    "smooth": cmd_smooth,
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
    "repro": cmd_repro,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        args = parser.parse_args(argv)  # now with the config file's defaults
    try:
        return _DISPATCH[args.cmd](args)
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"optimization failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
