"""The benchmark scripts still run against the package in this tree.

bench/tracing.py rebinds names inside spectramono modules, so a source edit
that drops one of them breaks traced runs without failing any other test.
Both scripts write only under the gitignored bench/.work/.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _run(*argv):
    done = subprocess.run(
        [sys.executable, *argv],
        cwd=BENCH.parent,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_selftest_catches_every_corruption():
    assert "0 missed" in _run("bench/selftest.py")


def test_traced_run_is_correct():
    argv = ["--workload", "k3-sweep", "--seed", "1", "--seconds", "0.1", "--trace", "1"]
    out = _run("bench/run.py", *argv)
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
