"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

For each workload it runs ops of every kind through the program, confirms
that the checks pass on the real outputs, then feeds the checks corrupted
copies of those outputs and confirms that every corruption is caught.
Exits 0 when all are caught, 1 otherwise.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
import tempfile

import run
from oracle import CheckFailure
from workloads import WORKLOADS

SEED = 7


def _bump(poly_cls, poly):
    """poly with its constant coefficient moved by one."""
    coeffs = list(poly.coefficients)
    coeffs[0] += 1
    return poly_cls(coeffs, poly.mode)


def k3_corruptions(pkg, output):
    """Corrupted copies of a (structure, Classification, MonomorphyReport)."""
    g, verdict, report = output
    poly = pkg.charpoly.RealPolynomial
    out = []
    out.append(("verdict flipped", (g, dataclasses.replace(verdict, monomorphic=not verdict.monomorphic), report)))
    out.append(("enumeration flipped", (g, verdict, dataclasses.replace(report, monomorphic=not report.monomorphic))))
    out.append(("subsets checked off by one", (g, verdict, dataclasses.replace(report, subsets_checked=report.subsets_checked + 1))))
    if report.monomorphic:
        out.append(("common poly changed", (g, verdict, dataclasses.replace(report, common_poly=_bump(poly, report.common_poly)))))
    else:
        a, b = report.witness_polys
        out.append(("witness poly changed", (g, verdict, dataclasses.replace(report, witness_polys=(a, _bump(poly, b))))))
        w = report.witness
        out.append(("witness subset changed", (g, verdict, dataclasses.replace(report, witness=(w[0], (0, 1, 5) if w[1] != (0, 1, 5) else (0, 2, 5))))))
    sel = verdict.witness_selector
    if sel is not None:
        values = list(sel.values)
        values[-1] = -values[-1]
        bad = pkg.core.Selector(values, sel.scale_sq)
        out.append(("selector value negated", (g, dataclasses.replace(verdict, witness_selector=bad), report)))
    else:
        v = verdict.variant
        a, b = v.witness_polys
        bad = dataclasses.replace(v, witness_polys=(_bump(poly, a), b))
        out.append(("classify witness poly changed", (g, dataclasses.replace(verdict, variant=bad), report)))
    labels = [list(row) for row in g.labels]
    x, y = next((x, y) for x in range(g.n) for y in range(x + 1, g.n) if labels[x][y].im != 0)
    labels[x][y], labels[y][x] = labels[y][x], labels[x][y]
    out.append(("input label conjugated", (pkg.core.HermitianStructure(labels), verdict, report)))
    return out


def cli_corruptions(kind, output):
    """Corrupted copies of a (exit code, report text) pair."""
    code, text = output
    report = json.loads(text)
    out = [("exit code changed", (code + 1, text))]

    def variant(mutate):
        r = copy.deepcopy(report)
        mutate(r)
        return (code, json.dumps(r))

    def bump_coefficient(poly):
        poly["coefficients"][0] = str(int(poly["coefficients"][0]) + 1)

    def negate_entry(doc, x, y):
        text = doc["entries"][x][y]
        doc["entries"][x][y] = text[1:] if text.startswith("-") else "-" + text

    if kind == "spectra":
        out.append(("polys checked changed", variant(lambda r: r.update(polys_checked=r["polys_checked"] - 1))))
        out.append(("ok flipped", variant(lambda r: r.update(ok=False))))
    elif kind == "all-k":
        out.append(("a monomorphic k flipped", variant(lambda r: r["all_k"]["3"].update(monomorphic=False))))
        out.append(("a common poly changed", variant(lambda r: bump_coefficient(r["all_k"]["9"]["common_poly"]))))
        out.append(("a witness poly changed", variant(lambda r: bump_coefficient(r["all_k"]["5"]["witness_polys"][1]))))
    elif kind.startswith("classify") and report["monomorphic"]:
        out.append(("certificate t changed", variant(lambda r: r["details"]["certificate"].update(t=r["details"]["certificate"]["t"] + 1))))
        out.append(("canonical entry negated", variant(lambda r: negate_entry(r["canonical"], 1, 2))))
        out.append(("selector scale changed", variant(lambda r: r["witness_selector"].update(scale_sq="2"))))
        out.append(("variant renamed", variant(lambda r: r.update(variant="c_rep_transitive"))))
    elif kind.startswith("classify"):
        out.append(("witness poly changed", variant(lambda r: bump_coefficient(r["details"]["witness_polys"][0]))))
        out.append(("verdict flipped", variant(lambda r: r.update(monomorphic=True))))
    elif report["result"]["monomorphic"]:
        out.append(("common poly changed", variant(lambda r: bump_coefficient(r["result"]["common_poly"]))))
        out.append(("subsets checked changed", variant(lambda r: r["result"].update(subsets_checked=r["result"]["subsets_checked"] + 1))))
    else:
        out.append(("witness poly changed", variant(lambda r: bump_coefficient(r["result"]["witness_polys"][1]))))
        out.append(("reference subset changed", variant(lambda r: r["result"]["witness"][0].reverse())))
    return out


def main():
    sys.path.insert(0, str(run.SRC))
    pkg = run.import_package()
    missed = []
    caught = 0
    (run.BENCH / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=run.BENCH / ".work") as workdir:
        for name, cls in WORKLOADS.items():
            workload = cls(pkg, SEED, workdir)
            seen = set()
            for op in workload.next_round():
                kind = getattr(op, "kind", None) or (op[0] if isinstance(op, tuple) else "i-rep")
                output = workload.run(op)
                if name != "paley-cli":
                    kind = (kind, type(output[1].variant).__name__)
                if kind in seen:
                    continue
                seen.add(kind)
                workload.check(op, output)  # the real output passes
                if name == "paley-cli":
                    corruptions = cli_corruptions(op.kind, output)
                else:
                    corruptions = k3_corruptions(pkg, output)
                for label, bad in corruptions:
                    try:
                        workload.check(op, bad)
                    except (CheckFailure, KeyError, TypeError, ValueError):
                        caught += 1
                    else:
                        missed.append(f"{name} {kind}: {label}")
            print(f"{name}: checked {len(seen)} op kinds: {sorted(map(str, seen))}")
    for line in missed:
        print(f"MISSED {line}")
    print(f"{caught} corruptions caught, {len(missed)} missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
