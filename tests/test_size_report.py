"""``tools/size_report.py``'s count of code lines."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "size_report.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("size_report", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = load_tool().code_lines

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
