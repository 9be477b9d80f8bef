"""Benchmark of spectramono: one workload per run, every output checked.

    python3 bench/run.py --workload k3-sweep --seed 1 --seconds 20 --trace 0

Run it from anywhere; it imports the package from the `src` directory next
to this one. With --trace 0 the last line of standard output is a JSON
object with the end-to-end metrics; with --trace 1 rounds alternate between
untraced and traced, and the metrics are the per-layer ones, with the
tracing overhead. The line before it carries the environment, the op
counts and the uncalibrated figures. Exit code 0 means the run finished,
whatever the checks found; any other code means it could not run.

Times are calibrated. A shared machine runs the same code at speeds that
drift by a quarter or more over seconds. So between ops, every
CALIBRATE_EVERY_S of op time, the benchmark times a fixed stretch of
interpreter work (`reference_work`) and scales the ops since the previous
sample by REFERENCE_S over the mean of the two samples around them. A
calibrated time is the time the op would take on a machine that runs the
reference work in REFERENCE_S. The reference does not touch the program,
so a change to the program moves calibrated and raw times alike.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

MIN_OPS = 1000  # so that at least ten samples lie beyond the 99th percentile
SETUP_REPEATS = 11
WALL_LIMIT_S = 150.0  # no new round starts after this much wall time
REFERENCE_S = 0.002  # reference_work on the machine the figures in README.md come from
CALIBRATE_EVERY_S = 0.05
MODULES = ("scalars", "core", "charpoly", "monomorphy", "classify", "constructions", "documents", "cli")


def reference_work():
    """Time a fixed stretch of interpreter work of the program's kind:
    Fraction and int arithmetic and small tuples."""
    start = perf_counter()
    acc = Fraction(0)
    total = 0
    for i in range(1, 600):
        acc += Fraction(i % 7, i % 5 + 1)
        pair = (i * 3, i - 1)
        total += pair[0] * pair[1] % 11
    return perf_counter() - start


class Calibrator:
    def __init__(self):
        self.last = reference_work()
        self.samples = [self.last]

    def factor(self):
        """REFERENCE_S over the mean of the previous sample and a new one."""
        now = reference_work()
        factor = 2 * REFERENCE_S / (self.last + now)
        self.last = now
        self.samples.append(now)
        return factor


class Side:
    """Rounds of one kind, untraced or traced: latencies of the ops that
    passed their checks, calibrated and raw, and op counts."""

    def __init__(self):
        self.latencies = []
        self.raw_latencies = []
        self.timed = 0.0  # calibrated seconds of all ops, failed ones too
        self.raw_timed = 0.0
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def rate(self):
        return len(self.latencies) / self.timed if self.timed else 0.0


def import_package():
    """Import spectramono afresh from SRC, as a new process would."""
    for name in [m for m in sys.modules if m == "spectramono" or m.startswith("spectramono.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    modules = {name: importlib.import_module(f"spectramono.{name}") for name in MODULES}
    origin = Path(modules["cli"].__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"spectramono was imported from {origin}, not from {SRC}")
    return argparse.Namespace(**modules)


def run_round(workload, calibrator):
    """Run one round, timing each op; return [op, output or exception, raw
    seconds, calibrated seconds] for each op."""
    outputs = []
    pending = 0  # ops not yet calibrated, at the end of outputs
    since = 0.0
    for op in workload.next_round():
        start = perf_counter()
        try:
            out = workload.run(op)
        except Exception as exc:  # a program fault: the op failed
            out = exc
        elapsed = perf_counter() - start
        outputs.append([op, out, elapsed, None])
        pending += 1
        since += elapsed
        if since >= CALIBRATE_EVERY_S:
            _calibrate(outputs, pending, calibrator.factor())
            pending, since = 0, 0.0
    if pending:
        _calibrate(outputs, pending, calibrator.factor())
    return outputs


def _calibrate(outputs, pending, factor):
    for entry in outputs[len(outputs) - pending :]:
        entry[3] = entry[2] * factor


def check_round(workload, side, outputs, errors):
    """Check a round's outputs, untimed, and file them under side."""
    side.rounds += 1
    for op, out, raw, calibrated in outputs:
        side.attempted += 1
        side.timed += calibrated
        side.raw_timed += raw
        if isinstance(out, Exception):
            side.failed += 1
            errors.append(f"raised {type(out).__name__}: {out}")
            continue
        try:
            workload.check(op, out)
        except Exception as exc:  # any disagreement, malformed output included
            side.failed += 1
            side.wrong += 1
            errors.append(f"check: {type(exc).__name__}: {exc}")
            continue
        side.latencies.append(calibrated)
        side.raw_latencies.append(raw)


def measure(pkg, workload, seconds, tracer, calibrator):
    """Run whole rounds until `seconds` of calibrated op time are measured
    and MIN_OPS ops were attempted; with a tracer, alternate untraced and
    traced rounds and stop only after a traced one."""
    plain, traced = Side(), Side()
    errors = []
    started = perf_counter()
    while True:
        if tracer is not None and plain.rounds > traced.rounds:
            originals = dict(workload.calls)
            tracer.install(pkg, workload.calls)
            try:
                outputs = run_round(workload, calibrator)
            finally:
                tracer.restore(workload.calls, originals)
            check_round(workload, traced, outputs, errors)
        else:
            check_round(workload, plain, run_round(workload, calibrator), errors)
            if tracer is not None:
                continue
        done = plain.timed + traced.timed >= seconds and plain.attempted + traced.attempted >= MIN_OPS
        if done or perf_counter() - started > WALL_LIMIT_S:
            return plain, traced, errors


def quantiles_ms(latencies):
    cuts = statistics.quantiles([1000.0 * x for x in latencies], n=100, method="inclusive")
    return cuts[49], cuts[98]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spectramono" / "__init__.py").is_file():
        print(f"bench: no spectramono sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.workload == "paley-cli":
        import numpy  # noqa: F401  the checks use it; keep its import out of set-up

    calibrator = Calibrator()
    (BENCH / ".work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=BENCH / ".work")
    try:
        setups, raw_setups = [], []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            pkg = import_package()
            workload = WORKLOADS[args.workload](pkg, args.seed, workdir)
            raw_setups.append(perf_counter() - start)
            setups.append(raw_setups[-1] * calibrator.factor())
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        plain, traced, errors = measure(pkg, workload, args.seconds, tracer, calibrator)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    sides = (plain, traced)
    wrong = sum(s.wrong for s in sides)
    for line in errors[:5]:
        print(f"bench: {args.workload}: {line}", file=sys.stderr)
    if len(plain.latencies) < 2:
        print(f"bench: {args.workload}: too few ops passed their checks to measure", file=sys.stderr)
        return 1

    p50, p99 = quantiles_ms(plain.latencies)
    raw_p50, raw_p99 = quantiles_ms(plain.raw_latencies)
    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": plain.rate(), "unit": "1/s"},
            "op_ms_p50": {"value": p50, "unit": "ms"},
            "op_ms_p99": {"value": p99, "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    else:
        metrics = tracer.per_layer(traced.attempted, plain.rate(), traced.rate())

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "backend": pkg.scalars.BACKEND,
        "cores": os.cpu_count(),
        "rounds": plain.rounds + traced.rounds,
        "ops_untraced": plain.attempted,
        "ops_traced": traced.attempted,
        "wrong_outputs": wrong,
        "calibrated_timed_s": plain.timed + traced.timed,
        "raw_timed_s": plain.raw_timed + traced.raw_timed,
        "reference_ms_median": 1000.0 * statistics.median(calibrator.samples),
        "raw_setup_s": statistics.median(raw_setups),
        "raw_ops_per_s": len(plain.raw_latencies) / plain.raw_timed,
        "raw_op_ms_p50": raw_p50,
        "raw_op_ms_p99": raw_p99,
    }
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": wrong == 0,
                "attempted": sum(s.attempted for s in sides),
                "failed": sum(s.failed for s in sides),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
