"""Tests for the repository tools under tools/."""

import importlib.util
import subprocess
import sys
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


def test_request_kinds_replays_one_paley_cli_round():
    """One line per request kind and --k, slowest median first, covering
    the 200 requests of a round."""
    done = subprocess.run(
        [sys.executable, str(_PATH.parent / "request_kinds.py"), "3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    header, *lines = done.stdout.splitlines()
    assert header.split() == ["kind", "k", "count", "median_ms"]
    rows = [line.split() for line in lines]
    assert sum(int(count) for _, _, count, _ in rows) == 200
    medians = [float(median) for *_, median in rows]
    assert medians == sorted(medians, reverse=True) and medians[-1] > 0
    kinds = {(kind, k) for kind, k, _, _ in rows}
    assert len(kinds) == len(rows)
    assert {("spectra", "-"), ("all-k", "all"), ("classify-nondrt", "13")} <= kinds
