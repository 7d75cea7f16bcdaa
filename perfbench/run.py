"""qoct benchmark: time to a verified optimum, from the CLI down to the 2x2 kernels.

    python3 perfbench/run.py --workload gate-search --seed 1 --seconds 20 --trace 0

Runs one workload's operations through ``qoct.cli.main`` in this process, one
at a time, as whole passes until ``--seconds`` is used up (at least one
pass).  Every output is checked against the independent propagator in
oracle.py.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  Times are scaled to a reference host speed sampled while
they are measured (pace.py), so that the shared host's changes of speed do
not read as changes of qoct.  See README.md.
"""
from __future__ import annotations

import os

# numpy's BLAS pools must be sized before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import pace
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 11
SETUP_SAMPLES = 10
# after the timed import, the interpreter samples the host speed (pace.py) and
# prints the samples' time and the speed factor
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import qoct.cli; qoct.cli.build_parser(); "
              "sys.path.insert(0, sys.argv[2]); import pace; p = pace.Pace(); "
              "[p.sample() for _ in range(int(sys.argv[3]))]; print(p.spent_wall, p.factor())")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "t_found_ratio": "1"}


@dataclass
class OpRun:
    op: workloads.Op
    out: Path
    rc: int
    wall: float
    cpu: float
    log: str
    failure: str | None = None   # why the operation failed, if it did
    wrong: bool = False          # failed a check of its outputs
    info: dict = field(default_factory=dict)
    speed: float = 1.0           # host speed sampled during the operation, if sampled


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def measure_setup() -> tuple[float, float]:
    """Median time of a fresh interpreter importing qoct.cli and building its parser.

    Each interpreter samples the host speed right after the import; returns
    the median of the times scaled by those speeds, and the raw median.  The
    samples' own time is not counted.
    """
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE),
                               str(SETUP_SAMPLES)],
                              capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"importing qoct.cli failed:\n{proc.stderr}")
        spent, factor = (float(x) for x in proc.stdout.split())
        times.append(wall - spent)
        scaled.append(times[-1] * factor)
    return statistics.median(scaled), statistics.median(times)


def invoke(cli, argv: list) -> tuple[int, str]:
    """qoct.cli.main(argv) with its output captured; an escaped exception is exit 1."""
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
    return rc, log.getvalue()


def run_op(cli, op, pass_dir: Path, sampler: pace.Pace | None = None) -> OpRun:
    """One operation; with a sampler, the samples' own time is taken out of its times."""
    out = pass_dir / op.name
    argv = op.argv(pass_dir) + [f"--out={out}"]
    c0, t0 = cpu_seconds(), time.perf_counter()
    if sampler is not None:
        spent_wall, spent_cpu = sampler.spent_wall, sampler.spent_cpu
        n0 = len(sampler.speeds)
        sampler.start()
    try:
        rc, log = invoke(cli, argv)
    finally:
        if sampler is not None:
            sampler.stop()
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
    run = OpRun(op, out / op.out_sub, rc, wall, cpu, log)
    if sampler is not None:
        run.wall -= sampler.spent_wall - spent_wall
        run.cpu -= sampler.spent_cpu - spent_cpu
        run.speed = statistics.fmean(sampler.speeds[n0:])
    return run


def evaluate(run: OpRun, pass_dir: Path):
    op = run.op
    if run.rc != op.expect_rc:
        run.failure = f"exit code {run.rc}, expected {op.expect_rc}"
        return
    missing = [f for f in op.files if not (run.out / f).is_file()]
    present = [f for f in op.absent if (run.out / f).exists()]
    if missing or present:
        run.failure = f"missing {missing}, unexpected {present}"
        return
    if op.check is None:
        return
    try:
        run.info = op.check(run.out, pass_dir)
    except (checks.CheckError, KeyError, TypeError, ValueError) as exc:
        run.failure = f"check failed: {type(exc).__name__}: {exc}"
        run.wrong = True


def self_test(runs: list[OpRun], pass_dir: Path, scratch: Path):
    """Damage one output of each check kind and confirm its check now fails.

    Returns the kinds tested and the damage a check let through.
    """
    problems = []
    done = []
    for run in runs:
        kind = run.op.kind
        if kind in done or run.failure is not None or run.op.check is None:
            continue
        done.append(kind)
        what, corrupt = checks.CORRUPTIONS[kind]
        copy = scratch / kind
        shutil.copytree(run.out, copy)
        corrupt(copy)
        try:
            run.op.check(copy, pass_dir)
        except checks.CheckError:
            continue
        problems.append(f"the {kind} check passed {what}")
    return done, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qoct" / "cli.py").is_file():
        print(f"error: no qoct sources under {SRC}", file=sys.stderr)
        return 2
    setup_s = measure_setup() if not args.trace else (None, None)
    sys.path.insert(0, str(SRC))
    import qoct
    import qoct.cli as cli
    if Path(qoct.__file__).resolve().parent != (SRC / "qoct").resolve():
        print(f"error: imported qoct from {qoct.__file__}, not {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return measure(args, cli, work, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, cli, work: Path, setup_s) -> int:
    inputs = work / "inputs"
    inputs.mkdir()
    ops = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed), inputs)

    # A traced run makes every operation twice in a row, untraced then traced,
    # so that the tracing overhead is measured under the same load; it samples
    # no host speed, so both are raw times.
    tracer = tracing.Tracer() if args.trace else None
    sampler = None if args.trace else pace.Pace()
    plain_runs: list[OpRun] = []
    traced_runs: list[OpRun] = []
    walls, cpus, traced_walls = [], [], []   # raw times of each pass
    factors = []                              # host speed over each pass
    peak_rss_mb = None
    t_start = time.perf_counter()
    while True:
        k = len(walls)
        pass_dir, traced_dir = work / f"pass{k}", work / f"pass{k}-traced"
        runs, traced = [], []
        if sampler is not None:
            sampler.reset()
        for i, op in enumerate(ops):
            runs.append(run_op(cli, op, pass_dir, sampler))
            if tracer is not None:
                tracer.current_op = k * len(ops) + i
                tracer.install()
                try:
                    traced.append(run_op(cli, op, traced_dir))
                finally:
                    tracer.uninstall()
        walls.append(sum(r.wall for r in runs))
        cpus.append(sum(r.cpu for r in runs))
        if traced:
            traced_walls.append(sum(r.wall for r in traced))
        if sampler is not None:
            factors.append(sampler.factor())
        if peak_rss_mb is None:  # before any check allocates
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for r in runs:
            evaluate(r, pass_dir)
        for r in traced:
            evaluate(r, traced_dir)
        if k == 0:
            self_tested, problems = self_test(runs, pass_dir, work / "selftest")
        plain_runs += runs
        traced_runs += traced
        shutil.rmtree(pass_dir, ignore_errors=True)
        shutil.rmtree(traced_dir, ignore_errors=True)
        last = walls[-1] + (traced_walls[-1] if traced else 0.0)
        if time.perf_counter() - t_start + last > args.seconds:
            break

    all_runs = plain_runs + traced_runs
    failed = [r for r in all_runs if r.failure is not None]
    for r in failed:
        print(f"operation {r.op.name} failed: {r.failure}\n{r.log.strip()[-2000:]}",
              file=sys.stderr)
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    for op in ops:
        line = f"{op.name:40s}"
        for label, runs in (("untraced", plain_runs), ("traced", traced_runs)):
            times = [r.wall for r in runs if r.op is op]
            if times:
                line += f" {label} {statistics.median(times):8.3f} s"
        if sampler is not None:
            scaled = [r.wall * r.speed for r in plain_runs if r.op is op]
            line += f" scaled {statistics.median(scaled):8.3f} s"
        print(line)
    ratios = [r.info["t_ratio"] for r in plain_runs[:len(ops)] if "t_ratio" in r.info]
    correct = not problems and not any(r.wrong for r in all_runs) and bool(ratios)

    if args.trace:
        metrics = tracer.layer_metrics(len(traced_walls))
        metrics["trace.wall_s"] = statistics.median(traced_walls)
        metrics["trace.overhead"] = sum(traced_walls) / sum(walls) - 1.0
        tracer.save(WORK / f"trace-{args.workload}.npz")
        units = {k: u for k, (u, _) in tracing.layer_metric_specs().items()}
    else:
        setup_scaled, setup_raw = setup_s
        print(f"raw: setup {setup_raw:.4f} s, wall {statistics.median(walls):.4f} s, "
              f"cpu {statistics.median(cpus):.4f} s; host speed "
              + " ".join(f"{f:.3f}" for f in factors)
              + f" ({len(sampler.speeds)} samples in the last pass)")
        metrics = {
            "setup_s": setup_scaled,
            "wall_s": statistics.median(w * f for w, f in zip(walls, factors)),
            "cpu_s": statistics.median(c * f for c, f in zip(cpus, factors)),
            "peak_rss_mb": peak_rss_mb,
            "t_found_ratio": float(np.mean(ratios)) if ratios else 0.0,
        }
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{name:55s} {value:14.6g} {units[name]}")
    print(f"passes {len(walls)}, operations {len(all_runs)}, failed {len(failed)}, "
          f"corruptions caught {len(self_tested) - len(problems)}/{len(self_tested)}, "
          f"correct {correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(all_runs),
        "failed": len(failed),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
