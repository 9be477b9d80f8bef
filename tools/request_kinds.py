"""Median latency of each kind of paley-cli request, on the working tree.

Builds the paley-cli requests of the benchmark for one seed with
bench/workloads.py, replays one round of them in this process as the
benchmark does, through spectramono.cli.main imported from src/, and
prints one line per request kind, slowest first: the kind, its --k, the
number of requests and their median raw latency in ms. So it shows which kind sets the tail of the
benchmark's latencies. Outputs are not checked; bench/run.py does that.
Run from anywhere:

    python3 tools/request_kinds.py
    python3 tools/request_kinds.py SEED

SEED defaults to 1. The request documents go to a temporary directory that
is removed at the end. bench/ is only imported. Only the standard library
is used.
"""

import statistics
import sys
import tempfile
import types
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402 - found through the path set above
from spectramono import cli  # noqa: E402


def label(request):
    """The request kind and its --k: 'all' for check --all-k, '-' for
    spectra."""
    argv = request.argv
    if "--k" in argv:
        return request.kind, argv[argv.index("--k") + 1]
    return request.kind, "all" if "--all-k" in argv else "-"


def latencies(seed):
    """{(kind, k): [raw seconds of each request]} over one round."""
    times = {}
    with tempfile.TemporaryDirectory() as workdir:
        workload = workloads.PaleyCli(types.SimpleNamespace(cli=cli), seed, workdir)
        for request in workload.next_round():
            start = perf_counter()
            workload.run(request)
            times.setdefault(label(request), []).append(perf_counter() - start)
    return times


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    seed = int(argv[0]) if argv else 1
    rows = [(statistics.median(values), key, len(values)) for key, values in latencies(seed).items()]
    print(f"{'kind':<18}{'k':>5}{'count':>7}{'median_ms':>11}")
    for median, (kind, k), count in sorted(rows, reverse=True):
        print(f"{kind:<18}{k:>5}{count:>7}{median * 1e3:>11.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
