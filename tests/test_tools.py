"""Tests for the repository tools under tools/."""

import importlib.util
import subprocess
import sys
from pathlib import Path

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _load("code_lines")
mutants = _load("mutants")

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
        [sys.executable, str(_TOOLS / "request_kinds.py"), "3"],
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


def test_mutant_catalogue_names_live_lines():
    """Each entry's old text is in its file exactly once; an entry whose
    text is gone, or is there twice, is reported."""
    assert mutants.problems() == []
    core = "src/spectramono/core.py"
    stale = [
        mutants.Mutant("gone", core, "no such text", ""),
        mutants.Mutant("twice", core, "def ", ""),
        mutants.Mutant("gone", "src/spectramono/nowhere.py", "x", ""),
    ]
    found = mutants.problems(stale)
    assert found[0] == "gone: the name is used more than once"
    assert found[1] == f"gone: old text found 0 times in {core}, not once"
    assert found[2].startswith("twice: old text found ")
    assert found[3] == "gone: no file src/spectramono/nowhere.py"


def test_mutants_runs_one_entry_on_a_selection():
    """The in_mask entry, run on the constructions tests alone, is killed
    and the first failing test is named."""
    done = subprocess.run(
        [sys.executable, str(_TOOLS / "mutants.py"), "in_mask_keeps_i", "--", "tests/test_constructions.py"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    line, summary = done.stdout.splitlines()
    assert line.split()[:2] == ["killed", "in_mask_keeps_i"]
    assert line.split()[-1].startswith("tests/test_constructions.py::")
    assert summary == "1 mutants, 0 marked equivalent, 0 others survived"
