"""Arithmetic the benchmark checks the program against, written apart from it.

Nothing here imports spectramono. Gaussian rationals are (re, im) pairs of
ints or fractions.Fraction; tournaments are lists of out-neighbour bitmasks
(bit y of row x set when x beats y); polynomials are lists of coefficients
in ascending order, as the program's reports give them.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations


class CheckFailure(Exception):
    """An output of the program disagrees with the benchmark's own answer."""


def expect(condition, message):
    if not condition:
        raise CheckFailure(message)


# --- Gaussian rationals as pairs -------------------------------------------

I_UNIT = (0, 1)

# units of Z[i]: twisting an i-representation by these keeps labels integral
GAUSSIAN_UNITS = [(1, 0), (-1, 0), (0, 1), (0, -1)]

# unit labels that are neither real nor purely imaginary
RATIONAL_LABELS = [
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(-4, 5), Fraction(3, 5)),
    (Fraction(5, 13), Fraction(12, 13)),
    (Fraction(-12, 13), Fraction(5, 13)),
    (Fraction(8, 17), Fraction(15, 17)),
    (Fraction(7, 25), Fraction(-24, 25)),
    (Fraction(20, 29), Fraction(21, 29)),
    (Fraction(-20, 29), Fraction(-21, 29)),
]

# unit selector values: the units of Z[i] and Pythagorean points
PYTHAGOREAN_UNITS = GAUSSIAN_UNITS + [
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(-3, 5), Fraction(4, 5)),
    (Fraction(5, 13), Fraction(-12, 13)),
    (Fraction(8, 17), Fraction(15, 17)),
]


def mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def conj(a):
    return (a[0], -a[1])


def norm(a):
    return a[0] * a[0] + a[1] * a[1]


def plain(q):
    """q as an int when it is integral: int arithmetic is much the faster."""
    return q.numerator if q.denominator == 1 else q


def pair(z):
    """The components of a program GaussianScalar, as plain as they go."""
    return (plain(z.re), plain(z.im))


def _number(text):
    return int(text) if "/" not in text else plain(Fraction(text))


def parse_text(text):
    """A scalar in the document grammar ('a/b', 'a/b+c/di', 'i', '-i')."""
    body = text.strip()
    if not body.endswith("i"):
        return (_number(body), 0)
    body = body[:-1]
    split = max(body.rfind("+"), body.rfind("-"))
    if split > 0 and body[split - 1] not in "/":
        re_text, im_text = body[:split], body[split:]
    else:
        re_text, im_text = "0", body
    if im_text in ("", "+", "-"):
        im_text += "1"
    return (_number(re_text), _number(im_text))


def to_text(a):
    re, im = a
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    return f"{re}{'+' if im > 0 else ''}{im}i"


def hermitian_doc(labels):
    n = len(labels)
    return json.dumps(
        {
            "format_version": "1",
            "kind": "hermitian",
            "n": n,
            "mode": "exact",
            "entries": [[to_text(labels[x][y]) for y in range(n)] for x in range(n)],
        }
    )


def sign_doc(entries):
    n = len(entries)
    return json.dumps(
        {
            "format_version": "1",
            "kind": "sign_matrix",
            "n": n,
            "mode": "exact",
            "entries": [[str(v) for v in row] for row in entries],
        }
    )


def doc_labels(doc):
    """Label pairs of a hermitian document dict found in a report."""
    expect(doc["kind"] == "hermitian", f"expected a hermitian document, got {doc['kind']}")
    return [[parse_text(cell) for cell in row] for row in doc["entries"]]


def doc_tournament(doc):
    expect(doc["kind"] == "tournament", f"expected a tournament document, got {doc['kind']}")
    rows = []
    for row in doc["entries"]:
        mask = 0
        for y, cell in enumerate(row):
            if cell == "1":
                mask |= 1 << y
        rows.append(mask)
    return rows


# --- tournaments -------------------------------------------------------------


def tournament_from_code(n, code):
    """Same pair order as the criterion-07 sweep: (0,1), (0,2), (1,2), ..."""
    rows = [0] * n
    bit = 0
    for j in range(n):
        for i in range(j):
            if code >> bit & 1:
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
            bit += 1
    return rows


def random_tournament(rng, n):
    return tournament_from_code(n, rng.getrandbits(n * (n - 1) // 2))


def random_transitive(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    rows = [0] * n
    for a, x in enumerate(order):
        for y in order[a + 1 :]:
            rows[x] |= 1 << y
    return rows


def is_transitive(rows):
    """A tournament is transitive exactly when its out-degrees are 0..n-1."""
    return sorted(r.bit_count() for r in rows) == list(range(len(rows)))


def paley(q):
    squares = {x * x % q for x in range(1, q)}
    return [
        sum(1 << y for y in range(q) if y != x and (y - x) % q in squares)
        for x in range(q)
    ]


def hat(rows):
    n = len(rows)
    return [((1 << (n + 1)) - 1) & ~1] + [r << 1 for r in rows]


def drt_parameter(rows):
    """t when every pair of distinct vertices has exactly t common
    dominators and n = 4t + 3, else None."""
    n = len(rows)
    dominators = [sum(1 << z for z in range(n) if rows[z] >> v & 1) for v in range(n)]
    counts = {
        (dominators[u] & dominators[v]).bit_count()
        for u in range(n)
        for v in range(u + 1, n)
    }
    if len(counts) != 1:
        return None
    (t,) = counts
    return t if n == 4 * t + 3 else None


# --- structures --------------------------------------------------------------


def representation(rows, label):
    """label on the arcs of the tournament, its conjugate against them."""
    n = len(rows)
    back = conj(label)
    return [
        [(0, 0) if x == y else label if rows[x] >> y & 1 else back for y in range(n)]
        for x in range(n)
    ]


def twist(labels, d):
    """d(x) * g(x, y) * conj(d(y)) for a unit selector d."""
    n = len(labels)
    return [
        [
            (0, 0) if x == y else mul(mul(d[x], labels[x][y]), conj(d[y]))
            for y in range(n)
        ]
        for x in range(n)
    ]


def relabel(labels, perm):
    n = len(labels)
    out = [[(0, 0)] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[perm[x]][perm[y]] = labels[x][y]
    return out


def random_unit_labels(rng, n, pool):
    labels = [[(0, 0)] * n for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            z = rng.choice(pool)
            labels[x][y] = z
            labels[y][x] = conj(z)
    return labels


def phases_in_one_pair(labels):
    """True when every phase product g(0,u) g(u,v) conj(g(0,v)) lies in
    {gamma, conj(gamma)} for gamma the one at (1, 2)."""
    n = len(labels)
    g0 = labels[0]
    gamma = mul(mul(g0[1], labels[1][2]), conj(g0[2]))
    allowed = (gamma, conj(gamma))
    return all(
        mul(mul(g0[u], labels[u][v]), conj(g0[v])) in allowed
        for u in range(1, n)
        for v in range(u + 1, n)
    )


def same_labels(labels, structure_labels):
    """Compare pairs against a program structure's GaussianScalar labels."""
    n = len(labels)
    return len(structure_labels) == n and all(
        structure_labels[x][y].re == labels[x][y][0]
        and structure_labels[x][y].im == labels[x][y][1]
        for x in range(n)
        for y in range(n)
    )


def selector_reproduces(canonical, values, scale_sq, labels):
    """scale_sq * d(x) * c(x, y) * conj(d(y)) == g(x, y) at every pair x != y."""
    n = len(labels)
    if len(canonical) != n or len(values) != n:
        return False
    for x in range(n):
        dx = values[x]
        for y in range(n):
            if x == y:
                continue
            re, im = mul(mul(dx, canonical[x][y]), conj(values[y]))
            if (re * scale_sq, im * scale_sq) != labels[x][y]:
                return False
    return True


# --- characteristic polynomials ---------------------------------------------


def triangle_poly(labels, x, y, z):
    """x^3 - (|a|^2+|b|^2+|c|^2) x - 2 Re(a c conj(b)), ascending, for
    a = g(x,y), b = g(x,z), c = g(y,z)."""
    a, b, c = labels[x][y], labels[x][z], labels[y][z]
    re = mul(a, c)
    return [
        -2 * (re[0] * b[0] + re[1] * b[1]),
        -(norm(a) + norm(b) + norm(c)),
        0,
        1,
    ]


def triangle_polys(labels):
    """Closed-form polynomial of every 3-subset, keyed by the subset."""
    return {
        s: triangle_poly(labels, *s) for s in combinations(range(len(labels)), 3)
    }


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def deletion_poly(t, d):
    """Char poly of the i-weighting of a skew conference matrix of order
    4t + 4 with d rows and columns deleted, expanded by plain products."""
    m = 4 * t + 3
    base = [-m, 0, 1]
    factors = {
        0: [],
        1: [[0, 1]],
        2: [[-1, 0, 1]],
        3: [[0, 1], [-3, 0, 1]],
    }[d] + [base] * (2 * t + 2 - d)
    out = [1]
    for f in factors:
        out = poly_mul(out, f)
    return out


def numpy_poly(labels, subset):
    """Integer char poly of the principal submatrix on subset, ascending,
    from numpy's eigenvalue route rounded to integers."""
    import numpy as np

    m = np.array(
        [[complex(*labels[x][y]) for y in subset] for x in subset], dtype=complex
    )
    coeffs = np.poly(m)[::-1]
    out = []
    for c in coeffs:
        r = round(c.real)
        expect(
            abs(c.real - r) < 1e-6 * max(1.0, abs(c.real)) and abs(c.imag) < 1e-6 * max(1.0, abs(c.real)),
            f"numpy char poly coefficient {c} is not an integer",
        )
        out.append(int(r))
    return out


def coefficients(report_poly):
    """Ascending Fraction coefficients of a report's polynomial dict."""
    return [Fraction(c) for c in report_poly["coefficients"]]


def poly_equal(got, want):
    """got: program coefficients; want: benchmark coefficients, ascending."""
    want = list(want)
    while len(want) > 1 and want[-1] == 0:
        want.pop()
    return list(got) == want


def seeded(seed, stream):
    """Independent deterministic generator for one named input stream."""
    return random.Random(f"{seed}:{stream}")
