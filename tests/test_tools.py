"""Tests for the repository tools under tools/."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
on two lines."""

# a comment line
TEXT = """a multi-line
string"""


def f():
    """A function docstring."""
    return TEXT  # a code line with a comment
'''


def test_code_lines_counts_only_code():
    """Docstrings, comment lines, blank lines and the continuation lines of
    a multi-line string do not count: TEXT =, def f() and return do."""
    assert code_lines.code_lines(SOURCE) == 3
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines("x = 1\n'''not a docstring'''\n") == 2
