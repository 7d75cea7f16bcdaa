"""``tools/size_report.py``'s counts of code lines and public names."""
import ast
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "size_report.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("size_report", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL_MODULE = load_tool()
code_lines = TOOL_MODULE.code_lines
public_names = TOOL_MODULE.public_names

SOURCE = '''"""Module docstring,
two lines."""
import numpy as np  # a trailing comment keeps its line

# a comment line


class Box:
    """Class docstring."""

    def area(self, w,
             h):
        """Function
        docstring."""
        note = """a multi-line string
that is not a docstring"""
        return w * h


def bare():
    "A one-line docstring."
    return 1
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # import, class, def (two lines), note (two lines), return, def, return
    assert code_lines(SOURCE) == 9


def test_empty_and_docstring_only_sources_have_no_code():
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n# and a comment\n') == 0


def test_public_names_count_the_module_level_all():
    source = '''__all__ = ["a", "b",
           "c"]


def f():
    __all__ = ["not", "the", "module's"]
'''
    assert public_names(ast.parse(source)) == 3
    assert public_names(ast.parse("__all__ = ('x',)\n")) == 1
    assert public_names(ast.parse("x = 1\n")) == 0
