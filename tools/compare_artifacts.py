"""Byte comparison of the artifacts two source trees write for a benchmark workload.

    python tools/compare_artifacts.py PARENT_TREE CHANGE_TREE --workload W --seeds 1-6

For every seed, generates the workload's operations with this repository's
perfbench/workloads.py, runs each of them through each tree's ``qoct`` CLI
(``TREE/src``, one process per operation, one BLAS thread) and compares every
file the two runs leave, except ``run_record.json``, which holds wall times.
Prints, for an artifact that differs, each JSON scalar that differs as
old -> new, or a CSV file's row counts and largest absolute difference per
column; it also names each artifact that exists on one side only and each
operation whose exit codes differ, then a summary.  Exits 0 when everything
is identical, 1 otherwise.  ``compare`` also serves two output directories
of any other run, such as two trees' ``qoct repro`` outputs.
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
MISSING = "<missing>"  # a JSON key on one side only


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


def json_differences(a, b, prefix: str = "") -> list[str]:
    """'path: old -> new' for every scalar that differs between two JSON values.

    Objects recurse by key and lists of equal length by index; a key on one
    side only, or lists of different lengths, read as missing or as a length.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for k in sorted(a.keys() | b.keys()):
            out += json_differences(a.get(k, MISSING), b.get(k, MISSING), f"{prefix}{k}.")
        return out
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{prefix[:-1]}: {len(a)} entries -> {len(b)} entries"]
        out = []
        for i, (va, vb) in enumerate(zip(a, b)):
            out += json_differences(va, vb, f"{prefix}{i}.")
        return out
    if a == b and type(a) is type(b):
        return []
    return [f"{prefix[:-1]}: {json.dumps(a)} -> {json.dumps(b)}"]


def csv_difference(a: bytes, b: bytes) -> str:
    """Row counts and, per column of a shared header, the largest |new - old|
    over the rows both files have."""
    (head_a, *rows_a), (head_b, *rows_b) = a.decode().splitlines(), b.decode().splitlines()
    text = f"rows {len(rows_a)} -> {len(rows_b)}"
    if head_a != head_b:
        return f"{text}; header {head_a!r} -> {head_b!r}"
    n = min(len(rows_a), len(rows_b))
    if n == 0:
        return text
    try:
        va = np.array([r.split(",") for r in rows_a[:n]], dtype=float)
        vb = np.array([r.split(",") for r in rows_b[:n]], dtype=float)
    except ValueError:
        return f"{text}; not all cells are numbers"
    diff = np.max(np.abs(vb - va), axis=0)
    return f"{text}; max |diff| " + ", ".join(
        f"{name} {d:.3g}" for name, d in zip(head_a.split(","), diff))


def compare(dir_a: Path, dir_b: Path) -> tuple[int, int, list[str]]:
    """Files compared, files not identical, and the lines that describe them.

    A differing JSON file gives one line per differing scalar and a differing
    CSV file one line with its row counts and per-column differences.
    """
    def files(d):
        return {p.relative_to(d) for p in d.rglob("*") if p.is_file() and p.name not in SKIPPED}
    fa, fb = files(dir_a), files(dir_b)
    lines = [f"{rel}: only in the parent tree" for rel in sorted(fa - fb)]
    lines += [f"{rel}: only in the change tree" for rel in sorted(fb - fa)]
    differing = len(lines)
    for rel in sorted(fa & fb):
        a, b = (dir_a / rel).read_bytes(), (dir_b / rel).read_bytes()
        if a == b:
            continue
        differing += 1
        details = []
        if rel.suffix == ".json":
            try:
                details = json_differences(json.loads(a), json.loads(b))
            except ValueError:
                pass
        elif rel.suffix == ".csv":
            details = [csv_difference(a, b)]
        lines += [f"{rel}: {d}" for d in details] or [f"{rel}: differs"]
    return len(fa | fb), differing, lines


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
                n, n_diff, lines = compare(work / "parent" / op.name, work / "change" / op.name)
                compared += n
                differing += n_diff
                for line in lines:
                    print(f"seed {seed} {op.name}/{line}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    print(f"{args.workload}, seeds {args.seeds}: {compared} artifacts compared, "
          f"{differing} differences")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
