"""Size of the qoct package: lines per module, defaulted parameters, options.

Prints the line count of every module under src/qoct, as ``wc -l`` counts
them (newline characters), then the total, then the number of parameters
with a default value over all ``def`` and ``async def`` statements
(positional plus keyword-only defaults; lambdas are not counted), then the
number of ``add_argument`` call sites (command-line options and positionals,
each site counted once however many subcommands it serves).

    python tools/size_report.py
"""
import ast
import sys
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "qoct"


def defaulted_parameters(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
    return count


def add_argument_sites(tree: ast.AST) -> int:
    return sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "add_argument" for node in ast.walk(tree))


def main() -> int:
    total = defaults = options = 0
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        data = path.read_bytes()
        lines = data.count(b"\n")
        tree = ast.parse(data.decode("utf-8"))
        total += lines
        defaults += defaulted_parameters(tree)
        options += add_argument_sites(tree)
        print(f"{lines:6d} {path.name}")
    print(f"{total:6d} total")
    print(f"{defaults:6d} defaulted parameters")
    print(f"{options:6d} add_argument sites")
    return 0


if __name__ == "__main__":
    sys.exit(main())
