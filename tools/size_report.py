"""Size of the qoct package: lines per module, code lines, defaulted parameters, options.

Prints the line count of every module under src/qoct, as ``wc -l`` counts
them (newline characters), then the total, then the number of code lines
over all modules (lines holding a token that is neither a comment nor part
of a module, class or function docstring, so no blank line counts), then
the number of parameters with a default value over all ``def`` and
``async def`` statements (positional plus keyword-only defaults; lambdas
are not counted), then the number of ``add_argument`` call sites
(command-line options and positionals, each site counted once however many
subcommands it serves), then the number of public names: the entries of
every module's ``__all__``, counted per module, so a name that the package
re-exports counts again there.

    python tools/size_report.py
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "qoct"


def code_lines(source: str) -> int:
    """Lines of ``source`` holding code: no blank, comment-only or docstring line."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in layout:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


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


def public_names(tree: ast.AST) -> int:
    """Entries of the module-level ``__all__`` list or tuple, 0 without one."""
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return len(node.value.elts)
    return 0


def main() -> int:
    total = code = defaults = options = public = 0
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        data = path.read_bytes()
        lines = data.count(b"\n")
        source = data.decode("utf-8")
        tree = ast.parse(source)
        total += lines
        code += code_lines(source)
        defaults += defaulted_parameters(tree)
        options += add_argument_sites(tree)
        public += public_names(tree)
        print(f"{lines:6d} {path.name}")
    print(f"{total:6d} total")
    print(f"{code:6d} code lines")
    print(f"{defaults:6d} defaulted parameters")
    print(f"{options:6d} add_argument sites")
    print(f"{public:6d} public names")
    return 0


if __name__ == "__main__":
    sys.exit(main())
