"""Extremal tournaments and the sign matrices attached to them.

Doubly regular tournaments, skew conference matrices and skew Hadamard
matrices are three views of one object. The constructors here build each
view, certify the defining counting conditions by direct enumeration, and
translate between the views exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from operator import mul
from typing import Optional

from .charpoly import (
    RealPolynomial,
    _adjugates,
    _first_deletion_miss,
    _polynomial,
    char_poly,  # noqa: F401 - not called here; bench/tracing.py rebinds it
)
from .combinat import colex_subsets
from .core import Tournament, _from_pairs, _require, _tuple_of
from .errors import InputError, InvariantError
from .scalars import EXACT


class SignMatrix:
    """Square integer matrix with entries in {-1, 0, 1}."""

    __slots__ = ("n", "entries")

    def __init__(self, entries):
        rows = tuple(_tuple_of(row, "a sign row") for row in _tuple_of(entries, "sign rows"))
        n = len(rows)
        if n == 0:
            raise InputError("sign matrix must be nonempty")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise InputError(f"row {i} has length {len(row)}, expected {n}")
            for j, v in enumerate(row):
                if not isinstance(v, int) or isinstance(v, bool) or v not in (-1, 0, 1):
                    raise InputError(f"entry ({i},{j}) must be -1, 0 or 1, got {v!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("SignMatrix is immutable")

    def __getitem__(self, i):
        return self.entries[i]

    def transpose(self):
        return SignMatrix(tuple(zip(*self.entries)))

    def __eq__(self, other):
        if not isinstance(other, SignMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"SignMatrix({self.n}x{self.n})"


def hat(t):
    """Extend t by a new vertex 0 dominating every original vertex."""
    _require(t, Tournament, "hat")
    rows = [((1 << (t.n + 1)) - 1) & ~1]
    for r in t.rows:
        rows.append(r << 1)
    return Tournament(t.n + 1, rows)


def skew_adjacency(t):
    """A - A^T for the adjacency matrix A of the tournament."""
    _require(t, Tournament, "skew_adjacency")
    n = t.n
    entries = [
        [0 if x == y else (1 if t.dominates(x, y) else -1) for y in range(n)]
        for x in range(n)
    ]
    return SignMatrix(entries)


def i_weighted(s):
    """Hermitian structure with label i*s[x][y]; s must be skew with zero diagonal."""
    _require(s, SignMatrix, "i_weighted")
    return _from_pairs(tuple(tuple((0, v) for v in row) for row in s.entries), 1, EXACT)


@dataclass(frozen=True)
class SignValidationReport:
    kind: str
    n: int
    ok: bool
    detail: Optional[str] = None
    locus: Optional[tuple] = None


_SIGN_KINDS = ("conference", "skew_conference", "hadamard", "skew_hadamard")


def validate_sign_matrix(m, kind):
    """Check the defining identities of one of the four sign-matrix kinds.

    conference:       zero diagonal, +-1 off it, M^T M = (n-1) I
    skew_conference:  conference and M^T = -M
    hadamard:         all entries +-1, H H^T = H^T H = n I
    skew_hadamard:    hadamard and H + H^T = 2 I

    One pass serves the four kinds: the zero scan, the skew scan for the
    skew kinds, then the Gram matrix of the columns (M^T M) for the
    conference kinds or of the rows (H H^T) for the Hadamard kinds. The
    report carries the first failing entry position as locus.
    """
    _require(m, SignMatrix, "validate_sign_matrix")
    if kind not in _SIGN_KINDS:
        raise InputError(f"kind must be one of {_SIGN_KINDS}, got {kind!r}")
    n = m.n
    e = m.entries
    conference = kind.endswith("conference")

    def fail(detail, locus):
        return SignValidationReport(kind=kind, n=n, ok=False, detail=detail, locus=locus)

    zero = "off-diagonal entry ({},{}) is 0" if conference else "entry ({},{}) is 0, expected +-1"
    for i, row in enumerate(e):
        if conference and row[i]:
            return fail(f"diagonal entry ({i},{i}) is {row[i]}, expected 0", (i, i))
        for j, v in enumerate(row):
            if v == 0 and (i != j or not conference):
                return fail(zero.format(i, j), (i, j))
    if kind.startswith("skew"):
        diagonal, negatives = (0, "are not negatives") if conference else (1, "do not sum to 0")
        for i, row in enumerate(e):
            # a conference diagonal is already 0 here
            if row[i] != diagonal:
                return fail(f"diagonal entry ({i},{i}) is {row[i]}, expected {diagonal}", (i, i))
            for j in range(i + 1, n):
                if row[j] + e[j][i]:
                    return fail(f"entries ({i},{j}) and ({j},{i}) {negatives}", (i, j))
    # H H^T = n I makes H^T = n H^-1 over the rationals, so H^T H = n I
    # follows and needs no check of its own
    vectors, gram, scale = (tuple(zip(*e)), "M^T M", n - 1) if conference else (e, "H H^T", n)
    for i, u in enumerate(vectors):
        for j, v in enumerate(vectors):
            value = sum(map(mul, u, v))
            want = scale if i == j else 0
            if value != want:
                return fail(f"({gram})[{i}][{j}] = {value}, expected {want}", (i, j))
    return SignValidationReport(kind=kind, n=n, ok=True)


def pair_cycle_counts(t, x, y):
    """(C3, O3) for the pair {x, y}: how many third vertices z make {x, y, z}
    a 3-cycle versus a transitive triple. C3 + O3 = n - 2 always."""
    _require(t, Tournament, "pair_cycle_counts")
    if x == y:
        raise InputError(f"need two distinct vertices in range({t.n}), got {x}, {y}")
    # dominates checks that both are vertices
    if t.dominates(x, y):
        c3 = (t.rows[y] & t.in_mask(x)).bit_count()
    else:
        c3 = (t.rows[x] & t.in_mask(y)).bit_count()
    return c3, t.n - 2 - c3


@dataclass(frozen=True)
class DrtCertificate:
    """Witness that every ordered pair of distinct vertices is jointly
    dominated by exactly t others (so n = 4t + 3)."""

    n: int
    t: int


def is_doubly_regular(t):
    """DrtCertificate when every pair of distinct vertices has exactly
    (n-3)/4 common dominators, None otherwise."""
    _require(t, Tournament, "is_doubly_regular")
    n = t.n
    if n < 3:
        return None
    masks = [t.in_mask(v) for v in range(n)]
    common = (masks[0] & masks[1]).bit_count()
    for u, v in combinations(range(n), 2):
        if (masks[u] & masks[v]).bit_count() != common:
            return None
    if n != 4 * common + 3:
        raise InvariantError(
            f"pair domination is constant at {common} but n={n} != {4 * common + 3}"
        )
    return DrtCertificate(n=n, t=common)


@dataclass(frozen=True)
class HomogeneityReport:
    homogeneous: bool
    k: Optional[int] = None
    witness: Optional[tuple] = None


def is_homogeneous(t):
    """Check that C3(x, y) is one positive constant k over all pairs.

    k > 0 is part of the definition: transitive tournaments have C3
    constant at zero and are not homogeneous. A homogeneous tournament
    must have exactly 4k - 1 vertices, which is asserted, not reported.
    """
    _require(t, Tournament, "is_homogeneous")
    n = t.n
    if n < 3:
        return HomogeneityReport(homogeneous=False, k=0)
    k, _ = pair_cycle_counts(t, 0, 1)
    for x, y in combinations(range(n), 2):
        if pair_cycle_counts(t, x, y)[0] != k:
            return HomogeneityReport(homogeneous=False, witness=((0, 1), (x, y)))
    if k == 0:
        # constant C3 = 0 means no 3-cycles at all, i.e. transitive
        return HomogeneityReport(homogeneous=False, k=0)
    if n != 4 * k - 1:
        raise InvariantError(f"C3 is constant at {k} but n={n} != {4 * k - 1}")
    return HomogeneityReport(homogeneous=True, k=k)


def _is_prime(q):
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def paley_tournament(q):
    """Tournament on Z/q (q prime, q = 3 mod 4) with x -> y when y - x is a
    nonzero square mod q. Certified doubly regular before returning."""
    if not isinstance(q, int) or isinstance(q, bool):
        raise InputError(f"q must be an int, got {q!r}")
    if not _is_prime(q):
        raise InputError(f"q must be prime, got {q}")
    if q % 4 != 3:
        raise InputError(f"q must be 3 mod 4 so that -1 is a non-square, got {q}")
    residues = {pow(x, 2, q) for x in range(1, q)}
    rows = []
    for x in range(q):
        row = 0
        for y in range(q):
            if x != y and (y - x) % q in residues:
                row |= 1 << y
        rows.append(row)
    t = Tournament(q, rows)
    cert = is_doubly_regular(t)
    if cert is None or cert.t != (q - 3) // 4:
        raise InvariantError(f"Paley tournament on {q} vertices failed certification")
    return t


def skew_hadamard_from_drt(t):
    """H = A - A^T + I built over hat(t); valid exactly when t is doubly
    regular, which is certified first."""
    _require(t, Tournament, "skew_hadamard_from_drt")
    cert = is_doubly_regular(t)
    if cert is None:
        raise InputError(
            f"tournament on {t.n} vertices is not doubly regular; "
            "pair domination counts differ"
        )
    extended = hat(t)
    skew = skew_adjacency(extended)
    entries = [
        [skew.entries[i][j] + (1 if i == j else 0) for j in range(extended.n)]
        for i in range(extended.n)
    ]
    h = SignMatrix(entries)
    report = validate_sign_matrix(h, "skew_hadamard")
    if not report.ok:
        raise InvariantError(f"constructed matrix failed validation: {report.detail}")
    return h


def drt_from_skew_hadamard(h):
    """Recover the doubly regular tournament behind a skew Hadamard matrix.

    Conjugating by D = diag(h[0][j]) preserves both defining identities and
    turns row 0 into all ones; deleting row and column 0 then leaves
    K = A - A^T + I for the adjacency matrix A of the tournament returned.
    Entry (i, j) of D H D is d_i h_ij d_j, read where it is tested.
    """
    report = validate_sign_matrix(h, "skew_hadamard")
    if not report.ok:
        raise InputError(f"not a skew Hadamard matrix: {report.detail}")
    n = h.n
    d = h.entries[0]
    rows = []
    for i in range(1, n):
        row = 0
        for j in range(1, n):
            if i != j and d[i] * h.entries[i][j] * d[j] == 1:
                row |= 1 << (j - 1)
        rows.append(row)
    t = Tournament(n - 1, rows)
    if is_doubly_regular(t) is None:
        raise InvariantError("normalized skew Hadamard core is not doubly regular")
    return t


def closed_form_deletion_poly(t, d):
    """Characteristic polynomial of the i-weighting of a skew conference
    matrix of order 4t + 4 with any d rows/columns deleted.

    d = 0: (x^2 - (4t+3))^(2t+2)
    d = 1: x (x^2 - (4t+3))^(2t+1)
    d = 2: (x^2 - 1)(x^2 - (4t+3))^(2t)
    d = 3: x (x^2 - 3)(x^2 - (4t+3))^(2t-1)

    Requires t >= 1; at t = 0 the d = 3 exponent goes negative and the
    order-4 matrices are degenerate for this family, so they are rejected.

    The coefficients are built in ints: (x^2 - q)^e, e = 2t + 2 - d, by the
    binomial theorem, with C(e, i) (-q)^(e - i) at x^(2i), times the factor
    1, x, x^2 - 1 or x^3 - 3x as a sum of shifted copies. Only the result
    becomes a RealPolynomial.
    """
    if not isinstance(t, int) or isinstance(t, bool) or t < 1:
        raise InputError(f"t must be an int >= 1, got {t!r}")
    if not isinstance(d, int) or isinstance(d, bool) or d not in (0, 1, 2, 3):
        raise InputError(f"d must be 0, 1, 2 or 3, got {d!r}")
    q, e = 4 * t + 3, 2 * t + 2 - d
    power = [0] * (2 * e + 1)
    for i in range(e + 1):
        power[2 * i] = math.comb(e, i) * (-q) ** (e - i)
    factor = ((1,), (0, 1), (-1, 0, 1), (0, -3, 0, 1))[d]
    coefficients = [0] * (len(power) + len(factor) - 1)
    for shift, f in enumerate(factor):
        if f:
            for j, c in enumerate(power):
                coefficients[j + shift] += f * c
    return RealPolynomial(coefficients, EXACT)


@dataclass(frozen=True)
class DeletionSpectraReport:
    n: int
    t: int
    max_deletions: int
    ok: bool
    polys_checked: int = 0
    failure: Optional[tuple] = None


def verify_deletion_spectra(s, max_deletions=3):
    """Check every d-deletion of a skew conference matrix against the closed
    forms, for d = 0 .. max_deletions.

    s must be a skew conference matrix of order 4t + 4 with t >= 1. The
    failure field, when set, is (deleted subset, expected poly, actual poly).

    One recurrence pass gives the full polynomial and the adjugates
    adj(x_j I - A) of A = i * S at n - 1 points x_j. The d-deletions for
    d >= 1 are checked against the closed form by
    charpoly._first_deletion_miss, through Jacobi's complementary minors
    and with the recurrence as its cross-check, so a failure polynomial
    comes from the recurrence on the deletion alone.
    """
    report = validate_sign_matrix(s, "skew_conference")
    if not report.ok:
        raise InputError(f"not a skew conference matrix: {report.detail}")
    if (
        not isinstance(max_deletions, int)
        or isinstance(max_deletions, bool)
        or not 0 <= max_deletions <= 3
    ):
        raise InputError(f"max_deletions must be 0..3, got {max_deletions!r}")
    n = s.n
    if n % 4 != 0 or n < 8:
        raise InputError(
            f"order {n} is outside the closed-form family (need n = 4t + 4, t >= 1)"
        )
    t = (n - 4) // 4
    # the labels i * s(x, y) as Gaussian-integer pairs; i * S is Hermitian
    # because S is skew
    labels = [[(0, v) for v in row] for row in s.entries]
    adjugates = _adjugates(labels, n - 1 if max_deletions else 0)
    full = adjugates[0]
    checked = 0
    for d in range(max_deletions + 1):
        expected = closed_form_deletion_poly(t, d)
        deletions = list(colex_subsets(n, d))
        if d == 0:
            miss = None if full == expected else (0, None)
        else:
            # the closed forms have integer coefficients
            descending = [int(c) for c in reversed(expected.coefficients)]
            miss = _first_deletion_miss(labels, adjugates, deletions, descending)
        if miss is None:
            checked += len(deletions)
            continue
        index, coefficients = miss
        actual = full if d == 0 else _polynomial(coefficients, 1)
        return DeletionSpectraReport(
            n=n,
            t=t,
            max_deletions=max_deletions,
            ok=False,
            polys_checked=checked + index + 1,
            failure=(deletions[index], expected, actual),
        )
    return DeletionSpectraReport(
        n=n, t=t, max_deletions=max_deletions, ok=True, polys_checked=checked
    )
