"""Command-line front end.

Subcommands map one-to-one onto the library workflows; every run writes its
artifacts plus a run_record.json (resolved config, version, wall time, output
manifest, and the seed where the subcommand takes one) into the output
directory.  Exit codes: 0 success, 2 validation error, 3 optimization failure.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, fileio, pmp, smoothing, state_prep, xgate
from .dynamics import TARGET_TOL, BlochPoint, ModelParams, bloch_from_state, propagate
from .pmp import CostSpec
from .protocols import protocol_to_dict
from .state_prep import StatePrepProblem, StructureLabel
from .xgate import GateProblem


def _angle(text: str) -> float:
    """Angle literal: plain radians, or a multiple of pi like '0.7pi'."""
    s = text.strip().lower()
    if s.endswith("pi"):
        return float(s[:-2] or 1.0) * np.pi
    return float(s)


def _parse_sweep(text: str) -> np.ndarray:
    try:
        lo, hi, n = text.split(":")
        return np.linspace(float(lo), float(hi), int(n))
    except ValueError:
        raise argparse.ArgumentTypeError("sweep must be lo:hi:n") from None


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
    sp.add_argument("--seed", type=int, default=0, help="seed of the restart draws")
    common(sp)

    sp = sub.add_parser("xgate", help="minimum-time gate search")
    sp.add_argument("--umax", type=float, required=True)
    sp.add_argument("--gate", choices=["x", "y", "pt"], default="x")
    common(sp)

    sp = sub.add_parser("sweep", help="parallel u_max sweep of the gate search")
    sp.add_argument("--umax", type=_parse_sweep, required=True, metavar="lo:hi:n")
    sp.add_argument("--gate", choices=["x", "y", "pt"], default="x")
    sp.add_argument("--jobs", type=int, default=1)
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
    sp.add_argument("--seed", type=int, default=0,
                    help="seed of the restart draws (tanh and third schemes at a fixed T)")
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
    """

    def __call__(self, parser, namespace, values, option_string=None):
        try:
            cfg = json.loads(Path(values).read_text())
        except (OSError, ValueError) as exc:
            parser.error(f"{option_string}: {exc}")
        if not isinstance(cfg, dict):
            parser.error(f"{option_string}: expected a JSON object")
        defaults = {k.replace("-", "_"): v for k, v in cfg.items()}
        parser.set_defaults(**{k: v for k, v in defaults.items() if hasattr(namespace, k)})
        setattr(namespace, self.dest, values)


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
        rec = {"subcommand": self.cmd, "config": self.config, "version": __version__}
        if "seed" in self.config:  # only subcommands whose searches read it take --seed
            rec["seed"] = self.config["seed"]
        rec["duration_s"] = time.perf_counter() - self.t0
        rec["outputs"] = sorted(set(self.files))
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
                                       t_max=args.tmax, seed=args.seed)
    payload = {
        "found": res.found,
        "t_star": res.t_star,
        "structure": str(res.structure) if res.structure else None,
        "switch_times": list(res.switch_times),
        "values": list(res.values),
        "cost": res.cost,
        "diagnostics": {k: v for k, v in res.diagnostics.items() if k != "bsb"},
        "report": res.report.summary() if res.report else None,
    }
    fileio.write_json(rec.path("search_result.json"), payload)
    if res.found:
        proto = res.protocol()
        fileio.write_pulse_csv(rec.path("pulse.csv"), proto)
        traj = propagate(proto, params, n_samples=2001)
        rows = []
        for t, psi in zip(traj.times, traj.states):
            b = bloch_from_state(psi)
            rows.append((t, b.theta, b.phi))
        fileio.write_csv(rec.path("trajectory.csv"), ["t", "theta", "phi"], rows)
    rec.finish()
    print(json.dumps({k: payload[k] for k in ("found", "t_star", "structure", "cost")}))
    return 0 if res.found else 3


def _gate_result_payload(res) -> dict:
    return {
        "t_star": res.t_star,
        "omega_eff": res.omega_eff,
        "ratio": res.ratio,
        "n_switch": res.n_switch,
        "parity": res.parity,
        "cost": res.cost,
        "protocol": protocol_to_dict(res.protocol),
        "report": res.report.summary() if res.report else None,
    }


def _sweep_point(task) -> dict:
    u, gate = task
    res = xgate.min_gate_time(GateProblem(gate, ModelParams(u_max=u)), with_report=False)
    return {"u_max": u, "t_star": res.t_star, "ratio": res.ratio,
            "omega_eff": res.omega_eff, "n_switch": res.n_switch}


def _run_sweep(rec: _Record, grid, gate: str, jobs: int) -> int:
    """Minimum gate time at every u_max of the grid, written to sweep.csv."""
    tasks = [(float(u), gate) for u in grid]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_point, tasks))
    else:
        rows = [_sweep_point(t) for t in tasks]
    rows.sort(key=lambda r: r["u_max"])
    fileio.write_csv(rec.path("sweep.csv"),
                     ["u_max", "t_star", "ratio", "omega_eff", "n_switch"],
                     [(r["u_max"], r["t_star"], r["ratio"], r["omega_eff"], r["n_switch"])
                      for r in rows])
    return len(rows)


def cmd_xgate(args) -> int:
    rec = _Record("xgate", args)
    problem = GateProblem(args.gate, ModelParams(u_max=args.umax))
    res = xgate.min_gate_time(problem)
    payload = _gate_result_payload(res)
    fileio.write_json(rec.path("gate_result.json"), payload)
    fileio.write_pulse_csv(rec.path("pulse.csv"), res.protocol.to_bang_sequence())
    if res.report is not None:
        fileio.write_json(rec.path("report.json"), res.report.summary())
        fileio.write_csv(rec.path("phi_hoc.csv"), ["t", "phi", "hoc"],
                         zip(res.report.times, res.report.phi, res.report.hoc))
    rec.finish()
    print(json.dumps({k: payload[k] for k in ("t_star", "ratio", "omega_eff", "n_switch")}))
    return 0


def cmd_sweep(args) -> int:
    rec = _Record("sweep", args)
    n = _run_sweep(rec, args.umax, args.gate, args.jobs)
    rec.finish()
    print(json.dumps({"points": n}))
    return 0


def cmd_smooth(args) -> int:
    rec = _Record("smooth", args)
    params = ModelParams(u_max=args.umax)
    problem = GateProblem("x", params)
    t_rabi = np.pi / args.umax
    if args.scheme == "tanh":
        if args.t_over_trabi is None:
            T, run = smoothing.min_tanh_time(problem, beta=args.beta)
        else:
            T = args.t_over_trabi * t_rabi
            run = smoothing.best_tanh_run(T, args.beta, problem, seed=args.seed)
    elif args.scheme == "third":
        if args.t_over_trabi is None:
            T, run = smoothing.min_third_harmonic_time(problem)
        else:
            T = args.t_over_trabi * t_rabi
            run = smoothing.optimize_third_harmonic(T, problem, seed=args.seed)
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
    freqs, amps = smoothing.fourier_spectrum(run.protocol)
    fileio.write_csv(rec.path("spectrum.csv"), ["f", "re", "im", "abs"],
                     [(f, a.real, a.imag, abs(a)) for f, a in zip(freqs, amps)])
    payload = {"scheme": run.scheme, "T": run.T, "t_over_trabi": run.T / t_rabi,
               "cost_plus_1": run.cost_plus_1, "converged": run.converged,
               "extras": {k: v for k, v in run.extras.items()}}
    fileio.write_json(rec.path("smoothing_run.json"), payload)
    rec.finish()
    print(json.dumps({k: payload[k] for k in ("scheme", "t_over_trabi", "cost_plus_1")}))
    return 0 if run.cost_plus_1 <= TARGET_TOL or args.scheme == "constrained" else 3


def _cost_spec_from_args(args) -> CostSpec:
    if args.cost == "sp":
        needed = (args.theta_init, args.phi_init, args.theta_target, args.phi_target)
        if any(v is None for v in needed):
            raise ValueError("state-prep verification needs --theta/phi-init/target")
        from .dynamics import state_from_bloch
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
                     zip(report.times, report.phi, report.hoc))
    rec.finish()
    print(report.to_json())
    return 0


def cmd_spectrum(args) -> int:
    rec = _Record("spectrum", args)
    t, u = fileio.read_pulse_csv(args.pulse)
    umax = args.umax if args.umax is not None else float(np.max(np.abs(u))) or 1.0
    protocol = fileio.sampled_from_pulse(t, u, umax)
    freqs, amps = smoothing.fourier_spectrum(protocol, n_max=args.nmax)
    fileio.write_csv(rec.path("spectrum.csv"), ["f", "re", "im", "abs"],
                     [(f, a.real, a.imag, abs(a)) for f, a in zip(freqs, amps)])
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
    _run_sweep(rec, grid, "x", 1)


def _repro_gate_point(rec: _Record, umax: float):
    res = xgate.min_gate_time(GateProblem("x", ModelParams(u_max=umax)))
    fileio.write_json(rec.path("gate_result.json"), _gate_result_payload(res))
    fileio.write_pulse_csv(rec.path("pulse.csv"), res.protocol.to_bang_sequence())
    fileio.write_csv(rec.path("phi_hoc.csv"), ["t", "phi", "hoc"],
                     zip(res.report.times, res.report.phi, res.report.hoc))


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
        rows.append((u, T / (np.pi / u), run.cost_plus_1))
    fileio.write_csv(rec.path("tanh_min_times.csv"),
                     ["u_max", "t_over_trabi", "c_x_plus_1"], rows)


def _repro_spectra(rec: _Record, smoothed: bool):
    problem = GateProblem("x", ModelParams(u_max=0.2))
    if smoothed:
        T, run = smoothing.min_tanh_time(problem, beta=4.0)
        proto = run.protocol
    else:
        proto = xgate.min_gate_time(problem, with_report=False).protocol.to_bang_sequence()
    freqs, amps = smoothing.fourier_spectrum(proto, n_max=60)
    fileio.write_csv(rec.path("spectrum.csv"), ["f", "re", "im", "abs"],
                     [(f, a.real, a.imag, abs(a)) for f, a in zip(freqs, amps)])


def _repro_third(rec: _Record):
    rows = []
    for u in np.linspace(0.05, 0.5, 10):
        problem = GateProblem("x", ModelParams(u_max=float(u)))
        T, run = smoothing.min_third_harmonic_time(problem)
        rows.append((u, T / (np.pi / u), run.extras["omega"], run.extras["ratio"]))
    fileio.write_csv(rec.path("third_harmonic.csv"),
                     ["u_max", "t_over_trabi", "omega", "ratio"], rows)


def _repro_csmooth(rec: _Record):
    problem = GateProblem("x", ModelParams(u_max=0.2))
    t_rabi = np.pi / 0.2
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
