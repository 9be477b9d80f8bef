"""The benchmark's three workloads.

Each workload builds its inputs from the seed with the benchmark's own
arithmetic (oracle.py), hands the program only those inputs, and checks
every output against oracle computations or properties the method must
have. An operation ("op") is one call of `run`; ops come in rounds of a
fixed make-up, so every run attempts whole rounds of the same kinds.

`calls` holds the program entry points an op uses, so the traced run can
swap them for timed wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from fractions import Fraction
from itertools import combinations
from math import comb

import oracle
from oracle import expect

N = 6  # vertices of the k = 3 sweep structures


def _pairs(scalars):
    return [[oracle.pair(e) for e in row] for row in scalars]


def _colex(n, k):
    return sorted(combinations(range(n), k), key=lambda s: s[::-1])


_COLEX3 = _colex(N, 3)


def _first_difference(polys):
    """(reference, first differing 3-subset, subsets checked) in colex
    order, or (reference, None, all subsets) when every polynomial agrees."""
    order = _COLEX3
    reference = polys[order[0]]
    for checked, s in enumerate(order, 1):
        if polys[s] != reference:
            return order[0], s, checked
    return order[0], None, len(order)


def _check_enumeration(report, polys, what):
    """A MonomorphyReport at k = 3 against the closed forms of all subsets."""
    reference, differing, checked = _first_difference(polys)
    expect(report.k == 3, f"{what}: k is {report.k}")
    expect(report.subsets_checked == checked, f"{what}: checked {report.subsets_checked} subsets, want {checked}")
    if differing is None:
        expect(report.monomorphic, f"{what}: all closed forms agree but the verdict is negative")
        expect(
            oracle.poly_equal(report.common_poly.coefficients, polys[reference]),
            f"{what}: common poly {report.common_poly} differs from the closed form",
        )
        return
    _check_witness(report.monomorphic, report.witness, report.witness_polys, polys, (reference, differing), what)


def _check_witness(monomorphic, witness, witness_polys, polys, want, what):
    expect(not monomorphic, f"{what}: closed forms differ on {want} but the verdict is positive")
    expect(tuple(map(tuple, witness)) == want, f"{what}: witness {witness}, want {want}")
    for s, p in zip(want, witness_polys):
        expect(oracle.poly_equal(p.coefficients, polys[s]), f"{what}: witness poly {p} of {s} differs from the closed form")


def _check_k3_verdict(verdict, labels, polys):
    """A classify_k3 Classification: the verdict equals the closed-form check;
    a positive one carries a canonical structure and a selector that maps it
    back onto the input; a negative one carries the first colex witness."""
    reference, differing, _ = _first_difference(polys)
    expect(verdict.k == 3, f"classify: k is {verdict.k}")
    kind = type(verdict.variant).__name__
    if differing is not None:
        expect(kind == "NotMonomorphic", f"classify: closed forms differ but the variant is {kind}")
        v = verdict.variant
        _check_witness(verdict.monomorphic, v.witness, v.witness_polys, polys, (reference, differing), "classify")
        return
    expect(verdict.monomorphic, "classify: all closed forms agree but the verdict is negative")
    selector = verdict.witness_selector
    canonical = _pairs(verdict.canonical.labels)
    expect(
        oracle.selector_reproduces(canonical, [oracle.pair(v) for v in selector.values], oracle.plain(selector.scale_sq), labels),
        "classify: the selector does not map the canonical structure onto the input",
    )
    label = (verdict.variant.label.re, verdict.variant.label.im)
    expect(label[1] > 0, f"classify: canonical label {label} has no positive imaginary part")
    rows = [sum(1 << y for y in range(N) if y != x and canonical[x][y] == label) for x in range(N)]
    expect(
        all(canonical[x][y] in (label, oracle.conj(label)) for x in range(N) for y in range(N) if x != y),
        "classify: canonical labels are not the label and its conjugate",
    )
    transitive = oracle.is_transitive(rows)
    if kind == "CRepTransitive":
        expect(transitive, "classify: c_rep_transitive on a non-transitive canonical tournament")
        order = tuple(sorted(range(N), key=lambda v: -rows[v].bit_count()))
        expect(tuple(verdict.variant.order) == order, f"classify: order {verdict.variant.order}, want {order}")
    elif kind == "IRepDominatedNonTransitive":
        expect(label[0] == 0, f"classify: i_rep label {label} is not purely imaginary")
        expect(not transitive, "classify: i_rep_dominated_non_transitive on a transitive tournament")
        expect(tuple(verdict.variant.tournament.rows) == tuple(rows), "classify: variant tournament differs from the canonical one")
        expect(rows[0] == ((1 << N) - 1) & ~1, "classify: vertex 0 does not dominate")
    else:
        raise oracle.CheckFailure(f"classify: unexpected positive variant {kind}")


class K3Sweep:
    """i-representations of seeded labeled 6-vertex tournaments, the
    criterion-07 family. Every one is 3-spectrally monomorphic."""

    ROUND = 100

    def __init__(self, pkg, seed, workdir):
        self.rng = oracle.seeded(seed, "k3-sweep")
        core = pkg.core
        self.calls = {
            "build": lambda code: core.i_representation(core.Tournament.from_pair_bits(N, code)),
            "classify": pkg.classify.classify_k3,
            "enumerate": pkg.monomorphy.is_k_spectrally_monomorphic,
        }

    def next_round(self):
        return [self.rng.getrandbits(N * (N - 1) // 2) for _ in range(self.ROUND)]

    def run(self, code):
        calls = self.calls
        g = calls["build"](code)
        return g, calls["classify"](g), calls["enumerate"](g, 3)

    def check(self, code, output):
        g, verdict, report = output
        labels = oracle.representation(oracle.tournament_from_code(N, code), oracle.I_UNIT)
        expect(oracle.same_labels(labels, g.labels), "build: labels differ from the i-representation")
        polys = oracle.triangle_polys(labels)
        expect(
            all(p == [0, -3, 0, 1] for p in polys.values()),
            "closed form: an i-representation 3-subset is not x^3 - 3x",
        )
        _check_enumeration(report, polys, "enumerate")
        _check_k3_verdict(verdict, labels, polys)


class K3Rational:
    """Structures with rational label components: c-representations of
    seeded 6-vertex tournaments with a unit label neither real nor purely
    imaginary, twisted by a seeded unit selector, plus random unit-label
    structures whose phases fall outside any {gamma, conj(gamma)}."""

    # per round: transitive c-reps (the positives), non-transitive c-reps,
    # random unit-label structures
    MAKE_UP = (("rep-transitive", 4), ("rep", 86), ("random", 10))

    def __init__(self, pkg, seed, workdir):
        self.rng = oracle.seeded(seed, "k3-rational")
        core, GS = pkg.core, pkg.scalars.GaussianScalar

        def build_rep(rows, label, d):
            t = core.Tournament(N, rows)
            g = core.c_representation(t, GS.exact(*label))
            return core.apply_selector(g, core.Selector([GS.exact(*v) for v in d]))

        def build_random(labels):
            return core.HermitianStructure([[GS.exact(*z) for z in row] for row in labels])

        self.calls = {
            "build": lambda op: build_random(op[1]) if op[0] == "random" else build_rep(*op[1:]),
            "classify": pkg.classify.classify_k3,
            "enumerate": pkg.monomorphy.is_k_spectrally_monomorphic,
        }

    def _draw(self, kind):
        rng = self.rng
        if kind == "random":
            while True:
                labels = oracle.random_unit_labels(rng, N, oracle.PYTHAGOREAN_UNITS)
                if not oracle.phases_in_one_pair(labels):
                    return ("random", labels)
        if kind == "rep-transitive":
            rows = oracle.random_transitive(rng, N)
        else:
            rows = oracle.random_tournament(rng, N)
            while oracle.is_transitive(rows):
                rows = oracle.random_tournament(rng, N)
        label = rng.choice(oracle.RATIONAL_LABELS)
        d = [rng.choice(oracle.PYTHAGOREAN_UNITS) for _ in range(N)]
        return ("rep", rows, label, d)

    def next_round(self):
        ops = [self._draw(kind) for kind, count in self.MAKE_UP for _ in range(count)]
        self.rng.shuffle(ops)
        return ops

    def run(self, op):
        calls = self.calls
        g = calls["build"](op)
        return g, calls["classify"](g), calls["enumerate"](g, 3)

    def check(self, op, output):
        g, verdict, report = output
        if op[0] == "random":
            labels = op[1]
        else:
            _, rows, label, d = op
            labels = oracle.twist(oracle.representation(rows, label), d)
        expect(oracle.same_labels(labels, g.labels), "build: labels differ from the benchmark's own")
        polys = oracle.triangle_polys(labels)
        monomorphic = len({tuple(p) for p in polys.values()}) == 1
        if op[0] == "random":
            expect(not monomorphic, "closed form: a random unit-label structure is 3-monomorphic")
            v = verdict.variant
            expect(
                type(v).__name__ == "NotMonomorphic" and v.pair is not None and "outside" in v.reason,
                "classify: a phase outside {gamma, conj(gamma)} was not reported",
            )
        else:
            expect(
                monomorphic == oracle.is_transitive(rows),
                "closed form: 3-monomorphy of a c-representation differs from transitivity",
            )
        _check_enumeration(report, polys, "enumerate")
        _check_k3_verdict(verdict, labels, polys)


# --- paley-cli ---------------------------------------------------------------


class _Request:
    __slots__ = ("kind", "argv", "expect_code", "check")

    def __init__(self, kind, argv, expect_code, check):
        self.kind, self.argv, self.expect_code, self.check = kind, argv, expect_code, check


def _i_rep(rows):
    return oracle.representation(rows, oracle.I_UNIT)


def _scramble(rng, labels):
    """Relabel the vertices and twist by a unit selector over Z[i]."""
    n = len(labels)
    perm = list(range(n))
    rng.shuffle(perm)
    d = [rng.choice(oracle.GAUSSIAN_UNITS) for _ in range(n)]
    return oracle.relabel(oracle.twist(labels, d), perm)


def _check_negative_result(result, labels, k):
    """A negative monomorphy dict: a witness pair of k-subsets whose polys
    match numpy's and differ, the reference being the first colex subset."""
    expect(result["monomorphic"] is False, f"k={k}: expected a negative verdict")
    s, t = (tuple(w) for w in result["witness"])
    expect(s == tuple(range(k)), f"k={k}: reference subset {s} is not the first in colex order")
    expect(len(t) == k and len(set(t)) == k and t != s, f"k={k}: bad witness subset {t}")
    got = [oracle.coefficients(p) for p in result["witness_polys"]]
    expect(got[0] != got[1], f"k={k}: witness polys agree")
    for subset, poly in zip((s, t), got):
        expect(oracle.poly_equal(poly, oracle.numpy_poly(labels, subset)), f"k={k}: witness poly of {subset} differs from numpy")


def _check_positive_result(result, n, k, want):
    expect(result["monomorphic"] is True, f"k={k}: expected a positive verdict")
    expect(result["subsets_checked"] == comb(n, k), f"k={k}: checked {result['subsets_checked']} subsets")
    got = oracle.coefficients(result["common_poly"])
    expect(oracle.poly_equal(got, want), f"k={k}: common poly {got} differs from {want}")


def _monomorphic_poly(n, k):
    """The common polynomial of hat(Paley-(n-1)) at k when the paper says it
    is k-monomorphic there (k in 1, 2, 3, n-3 .. n), else None."""
    t = (n - 4) // 4
    if k >= n - 3:
        return oracle.deletion_poly(t, n - k)
    return {1: [0, 1], 2: [-1, 0, 1], 3: [0, -3, 0, 1]}.get(k)


def _classify_drt(q, labels):
    n = q + 1

    def check(report):
        expect(report["variant"] == "i_rep_drt_hat", f"classify: variant {report['variant']}")
        expect(report["k"] == n - 3 and report["monomorphic"] is True, "classify: not a positive n-3 verdict")
        details = report["details"]
        expect(details["certificate"] == {"n": q, "t": (q - 3) // 4}, f"classify: certificate {details['certificate']}")
        base = oracle.doc_tournament(details["tournament"])
        expect(oracle.drt_parameter(base) == (q - 3) // 4, "classify: reported tournament is not doubly regular")
        canonical = oracle.doc_labels(report["canonical"])
        expect(canonical == _i_rep(oracle.hat(base)), "classify: canonical is not the i-representation of hat(T)")
        sel = report["witness_selector"]
        values = [oracle.parse_text(v) for v in sel["values"]]
        expect(
            oracle.selector_reproduces(canonical, values, oracle.plain(Fraction(sel["scale_sq"])), labels),
            "classify: the selector does not reproduce the input",
        )

    return check


def _classify_negative(labels):
    n = len(labels)

    def check(report):
        expect(report["variant"] == "not_monomorphic" and report["k"] == n - 3, f"classify: variant {report['variant']}")
        _check_negative_result(report["details"] | {"monomorphic": report["monomorphic"]}, labels, n - 3)

    return check


def _check_k(labels, k, want):
    n = len(labels)

    def check(report):
        result = report["result"]
        expect(result["k"] == k, f"check: k is {result['k']}")
        if want is None:
            _check_negative_result(result, labels, k)
        else:
            _check_positive_result(result, n, k, want)

    return check


def _check_triangles(labels):
    """check --k 3 where every closed-form triangle polynomial agrees."""
    polys = oracle.triangle_polys(labels)
    (want,) = {tuple(p) for p in polys.values()}
    return _check_k(labels, 3, list(want))


def _all_k(labels):
    n = len(labels)

    def check(report):
        profile = report["all_k"]
        expect(sorted(profile, key=int) == [str(k) for k in range(1, n + 1)], "all-k: missing k")
        for k in range(1, n + 1):
            result = profile[str(k)]
            want = _monomorphic_poly(n, k)
            if want is None:
                _check_negative_result(result, labels, k)
            else:
                _check_positive_result(result, n, k, want)

    return check


def _spectra(n):
    t = (n - 4) // 4
    polys = sum(comb(n, d) for d in range(4))

    def check(report):
        expect(report["ok"] is True and report["failure"] is None, "spectra: not ok")
        expect((report["n"], report["t"], report["max_deletions"]) == (n, t, 3), "spectra: wrong n, t or depth")
        expect(report["polys_checked"] == polys, f"spectra: {report['polys_checked']} polys, want {polys}")

    return check


def _signed_permutation(rng, entries):
    n = len(entries)
    perm = list(range(n))
    rng.shuffle(perm)
    e = [rng.choice((1, -1)) for _ in range(n)]
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[perm[x]][perm[y]] = e[x] * e[y] * entries[x][y]
    return out


def _random_non_drt(rng, m):
    while True:
        rows = oracle.random_tournament(rng, m)
        if not oracle.is_transitive(rows) and oracle.drt_parameter(rows) is None:
            return rows


class PaleyCli:
    """A fixed, seeded mix of in-process `spectramono` CLI requests on
    documents written in set-up: hat(Paley-q) i-representations, hat(T)
    for non-doubly-regular T, and order-12 skew conference matrices."""

    # (request kind, size, count per round); size is q for the Paley kinds,
    # the order of T for classify-nondrt and the matrix order for spectra.
    # Latencies group as listed: with 200 requests a round, the 99th
    # percentile lies mid-way through the spectra block and the median
    # mid-way through the classify requests on hat(Paley-19), each with
    # other kinds at least a few milliseconds away on both sides.
    MAKE_UP = (
        # heavy: the tail
        ("spectra", 12, 4),
        ("all-k", 11, 1),
        # faster than the median block
        ("classify-plain", 7, 8),
        ("classify-twisted", 7, 8),
        ("classify-plain", 11, 8),
        ("classify-twisted", 11, 8),
        ("check-4", 7, 6),
        ("check-4", 11, 6),
        ("check-4", 19, 6),
        ("classify-nondrt", 7, 10),
        ("classify-nondrt", 11, 8),
        ("check-3", 7, 8),
        ("check-n", 7, 4),
        ("check-n-1", 7, 4),
        # the median block
        ("classify-plain", 19, 16),
        ("classify-twisted", 19, 16),
        # slower than the median block
        ("classify-plain", 23, 8),
        ("classify-twisted", 23, 8),
        ("classify-plain", 31, 6),
        ("classify-twisted", 31, 6),
        ("classify-plain", 43, 4),
        ("classify-twisted", 43, 4),
        ("check-4", 31, 6),
        ("check-4", 43, 4),
        ("classify-nondrt", 15, 12),
        ("check-n-3", 7, 10),
        ("check-n-2", 7, 11),
    )

    def __init__(self, pkg, seed, workdir):
        rng = oracle.seeded(seed, "paley-cli")
        self.calls = {"main": pkg.cli.main}
        self.requests = []
        paley_labels = {}
        for kind, size, count in self.MAKE_UP:
            for _ in range(count):
                if kind == "spectra":
                    entries = _signed_permutation(rng, self._skew_conference(size))
                    path = self._write(workdir, oracle.sign_doc(entries))
                    self.requests.append(_Request(kind, ["spectra", "--input", path], 0, _spectra(size)))
                    continue
                if kind == "classify-nondrt":
                    labels = _scramble(rng, _i_rep(oracle.hat(_random_non_drt(rng, size))))
                    path = self._write(workdir, oracle.hermitian_doc(labels))
                    argv = ["classify", "--input", path, "--k", str(size - 2)]
                    self.requests.append(_Request(kind, argv, 1, _classify_negative(labels)))
                    continue
                if size not in paley_labels:
                    paley_labels[size] = _i_rep(oracle.hat(oracle.paley(size)))
                labels = paley_labels[size]
                if kind != "classify-plain":
                    labels = _scramble(rng, labels)
                path = self._write(workdir, oracle.hermitian_doc(labels))
                n = size + 1
                if kind.startswith("classify"):
                    argv, code, check = ["--k", str(n - 3)], 0, _classify_drt(size, labels)
                    argv = ["classify", "--input", path] + argv
                elif kind == "all-k":
                    argv, code, check = ["check", "--input", path, "--all-k"], 1, _all_k(labels)
                elif kind == "check-3":
                    argv, code, check = ["check", "--input", path, "--k", "3"], 0, _check_triangles(labels)
                elif kind == "check-4":
                    argv, code, check = ["check", "--input", path, "--k", "4"], 1, _check_k(labels, 4, None)
                else:  # check-n, check-n-1, check-n-2, check-n-3
                    k = n + int(kind[len("check-n") :] or 0)
                    argv, code = ["check", "--input", path, "--k", str(k)], 0
                    check = _check_k(labels, k, _monomorphic_poly(n, k))
                self.requests.append(_Request(kind, argv, code, check))
        rng.shuffle(self.requests)

    def _skew_conference(self, n):
        rows = oracle.hat(oracle.paley(n - 1))
        return [[0 if x == y else 1 if rows[x] >> y & 1 else -1 for y in range(n)] for x in range(n)]

    def _write(self, workdir, text):
        path = os.path.join(workdir, f"doc{len(self.requests):03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def next_round(self):
        return self.requests

    def run(self, request):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.calls["main"](request.argv)
        return code, out.getvalue()

    def check(self, request, output):
        code, text = output
        expect(code == request.expect_code, f"{request.kind}: exit code {code}, want {request.expect_code}")
        request.check(json.loads(text))


WORKLOADS = {"k3-sweep": K3Sweep, "k3-rational": K3Rational, "paley-cli": PaleyCli}
