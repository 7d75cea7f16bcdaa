"""Byte comparison of the artifacts two source trees write for a benchmark workload.

    python tools/compare_artifacts.py PARENT_TREE CHANGE_TREE --workload W --seeds 1-6

For every seed, generates the workload's operations with this repository's
perfbench/workloads.py, runs each of them through each tree's ``qoct`` CLI
(``TREE/src``, one process per operation, one BLAS thread) and compares every
file the two runs leave, except ``run_record.json``, which holds wall times.
Prints one line per artifact that differs or exists on one side only (for a
JSON object, with the keys that differ) and per operation whose
exit codes differ, then a summary.  Exits 0 when everything is identical,
1 otherwise.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402

RUNNER = "import sys; sys.path.insert(0, sys.argv[1]); import qoct.cli; sys.exit(qoct.cli.main(sys.argv[2:]))"
SKIPPED = {"run_record.json"}


def parse_seeds(text: str) -> list[int]:
    """'1-6' or '1,3,9' or a mix such as '1-3,7'."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_ops(tree: Path, ops, pass_dir: Path, env: dict) -> list[int]:
    codes = []
    for op in ops:
        argv = op.argv(pass_dir) + [f"--out={pass_dir / op.name}"]
        proc = subprocess.run([sys.executable, "-c", RUNNER, str(tree / "src"), *argv],
                              env=env, capture_output=True)
        codes.append(proc.returncode)
    return codes


def keys_that_differ(a, b, prefix: str = "") -> list[str]:
    """Dotted paths of the keys whose values differ between two JSON objects."""
    out = []
    for k in sorted(a.keys() | b.keys()):
        va, vb = a.get(k), b.get(k)
        if isinstance(va, dict) and isinstance(vb, dict):
            out += keys_that_differ(va, vb, f"{prefix}{k}.")
        elif va != vb:
            out.append(prefix + k)
    return out


def compare(dir_a: Path, dir_b: Path) -> tuple[int, list[str]]:
    """Number of files compared, and one line per file that is not identical."""
    def files(d):
        return {p.relative_to(d) for p in d.rglob("*") if p.is_file() and p.name not in SKIPPED}
    fa, fb = files(dir_a), files(dir_b)
    lines = [f"{rel}: only in the parent tree" for rel in sorted(fa - fb)]
    lines += [f"{rel}: only in the change tree" for rel in sorted(fb - fa)]
    for rel in sorted(fa & fb):
        a, b = dir_a / rel, dir_b / rel
        if a.read_bytes() == b.read_bytes():
            continue
        keys = []
        if rel.suffix == ".json":
            try:
                da, db = json.loads(a.read_bytes()), json.loads(b.read_bytes())
            except ValueError:
                da = db = None
            if isinstance(da, dict) and isinstance(db, dict):
                keys = keys_that_differ(da, db)
        lines.append(f"{rel}: differs" + (f" in {', '.join(keys)}" if keys else ""))
    return len(fa | fb), lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-6"))
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "qoct" / "cli.py").is_file():
            parser.error(f"no qoct sources under {tree}")

    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    compared = differing = 0
    for seed in args.seeds:
        work = Path(tempfile.mkdtemp(prefix=f"compare-{args.workload}-{seed}-"))
        try:
            inputs = work / "inputs"
            inputs.mkdir()
            ops = workloads.WORKLOADS[args.workload](np.random.default_rng(seed), inputs)
            codes = {side: run_ops(tree, ops, work / side, env) for side, tree in trees.items()}
            for op, rc_a, rc_b in zip(ops, codes["parent"], codes["change"]):
                if rc_a != rc_b:
                    differing += 1
                    print(f"seed {seed} {op.name}: exit code {rc_a} -> {rc_b}")
                n, lines = compare(work / "parent" / op.name, work / "change" / op.name)
                compared += n
                differing += len(lines)
                for line in lines:
                    print(f"seed {seed} {op.name}/{line}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    print(f"{args.workload}, seeds {args.seeds}: {compared} artifacts compared, "
          f"{differing} differences")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
