"""Size of the qoct package: lines per module and defaulted parameters.

Prints the line count of every module under src/qoct, as ``wc -l`` counts
them (newline characters), then the total, then the number of parameters
with a default value over all ``def`` and ``async def`` statements
(positional plus keyword-only defaults; lambdas are not counted).

    python tools/size_report.py
"""
import ast
import sys
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "qoct"


def defaulted_parameters(source: str) -> int:
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
    return count


def main() -> int:
    total = defaults = 0
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        data = path.read_bytes()
        lines = data.count(b"\n")
        total += lines
        defaults += defaulted_parameters(data.decode("utf-8"))
        print(f"{lines:6d} {path.name}")
    print(f"{total:6d} total")
    print(f"{defaults:6d} defaulted parameters")
    return 0


if __name__ == "__main__":
    sys.exit(main())
