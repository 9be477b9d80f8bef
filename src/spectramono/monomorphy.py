"""Spectral monomorphy by enumeration.

A structure is k-spectrally monomorphic when all of its k-vertex
substructures share one characteristic polynomial. The checks here
enumerate substructures in colexicographic order, so the first mismatching
pair of subsets is deterministic and becomes the reported witness. In
exact mode a subset pays a recurrence only when neither its slice of the
label matrix nor the gauge class of that slice, its norms and phase
products, was seen before in the same enumeration: a selector twist keeps
every characteristic polynomial, and it keeps the class too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, islice
from typing import Optional

from .charpoly import (
    RealPolynomial,
    _adjugates,
    _first_deletion_miss,
    _label_matrix,
    _minor,
    _polynomial,
    _principal_submatrix,
    _recurrence,
    char_poly,  # noqa: F401 - not called here; bench/tracing.py rebinds it
)
from .combinat import colex_subsets
from .core import HermitianStructure, _descaled, pair_product, substructure  # noqa: F401 - as char_poly
from .errors import InputError
from .scalars import APPROX, EXACT, GaussianScalar, close, get_eps, rational


def _compare_polys(a, b):
    """(equal, fragile) for two approx polynomials: fragile marks a
    comparison that sits within 10 * eps of its decision boundary, in
    either direction."""
    if len(a.coefficients) != len(b.coefficients):
        return False, False
    eps = get_eps()
    equal = True
    fragile = False
    for ca, cb in zip(a.coefficients, b.coefficients):
        tol = eps * max(1.0, abs(ca), abs(cb))
        diff = abs(ca - cb)
        if diff > tol:
            equal = False
        if abs(diff - tol) <= 10.0 * eps:
            fragile = True
    return equal, fragile


@dataclass(frozen=True)
class MonomorphyReport:
    """Verdict of the k-subset enumeration.

    witness, present exactly when monomorphic is False, is the pair
    (reference subset, first differing subset) in colex order, with the two
    characteristic polynomials alongside. fragile is only ever True in
    approx mode, flagging a comparison that nearly flipped.
    """

    k: int
    monomorphic: bool
    common_poly: Optional[RealPolynomial] = None
    witness: Optional[tuple] = None
    witness_polys: Optional[tuple] = None
    subsets_checked: int = 0
    fragile: bool = False


def is_k_spectrally_monomorphic(g, k):
    """Enumerate all k-subsets and compare their characteristic polynomials.

    k must satisfy 1 <= k <= n; larger k has no substructures to compare and
    is rejected rather than treated as vacuously true. The label matrix is
    built once and each subset's polynomial comes from its principal
    submatrix, the same computation char_poly(substructure(g, subset)) does.
    In exact mode subsets with equal or gauge-equivalent submatrices share
    one recurrence, and large k goes through Jacobi's complementary minors
    (see charpoly._first_deletion_miss).
    """
    if not isinstance(g, HermitianStructure):
        raise InputError("is_k_spectrally_monomorphic takes a HermitianStructure")
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= g.n:
        raise InputError(f"subset size must satisfy 1 <= k <= {g.n}, got {k!r}")
    m, d = _label_matrix(g)
    return _enumerate(m, d, k, lambda: _adjugates(m, k))


def _direct_count(n, k):
    """ceil((n/k)^4): about the cost of the order-n recurrence behind the
    adjugates, counted in order-k recurrences. Enumerating that many
    subsets directly first keeps witnesses found early as cheap as before."""
    return -(-(n**4) // k**4)


def _negative_report(k, reference_subset, subset, reference_poly, poly, checked, fragile):
    return MonomorphyReport(
        k=k,
        monomorphic=False,
        witness=(reference_subset, subset),
        witness_polys=(reference_poly, poly),
        subsets_checked=checked,
        fragile=fragile,
    )


# entries of each per-call memo of _enumerate
_MEMO_BOUND = 1024


def _class_key(m, subset):
    """The gauge class of the slice A[S] of S = subset, or None when
    a(s, u) = 0 for some u in S, s = subset[0]: the norms |a(s, u)|^2 of
    the u after s, in subset order, then the phase products
    W_s(u, v) = a(s, u) a(u, v) conj(a(s, v)) for u < v after s. With
    E = diag(1, a(s, u), ...), E A[S] E^-1 has row s all ones, column s
    the norms and entry (u, v) equal to W_s(u, v) / |a(s, v)|^2, so two
    slices with one key are similar and share their polynomial."""
    rest = subset[1:]
    row = m[subset[0]]
    lead = [row[u] for u in rest]
    if (0, 0) in lead:
        return None
    key = [re * re + im * im for re, im in lead]
    for i, u in enumerate(rest, 1):
        mu = m[u]
        su = lead[i - 1]
        key += [pair_product(su, mu[v], sv) for v, sv in zip(rest[i:], lead[i:])]
    return tuple(key)


def _enumerate(m, d, k, adjugates):
    """MonomorphyReport for the k-subsets of the (A, D) matrix m of
    _label_matrix, in colex order.

    Exact mode compares the integer coefficient lists that _recurrence
    gives for the submatrices A[S]: with one D and one k, P_A[S] = P_A[T]
    exactly when P_M[S] = P_M[T]. Two per-call memos stand in front of the
    recurrence. The first maps the strict upper triangle of A[S], which
    fixes the Hermitian zero-diagonal A[S], to its list, so each distinct
    submatrix is reduced once, checks included. On a miss there, the
    second maps the gauge class of A[S] (_class_key) to its list, so a
    slice that differs from an earlier one only by a diagonal similarity,
    as a selector twist makes it, is not reduced again; a slice with a
    zero in its lead row has no class key. Each
    memo takes at most 1024 entries (_MEMO_BOUND) and then inserts
    nothing more, so neither grows with C(n, k). Only the reference, the
    witness and common_poly become RealPolynomials. Approx mode (see
    _enumerate_approx) takes no memo.

    In exact mode with n - k <= 3 and 2k > n, the subsets after the first
    _direct_count(n, k) are checked against the reference's coefficients by
    _first_deletion_miss, through Jacobi's complementary minors and with
    the recurrence as its cross-check. adjugates() gives what _adjugates
    gives for at least k points; it is called at most once, and may be a
    cache shared across k. The reference and witness polynomials come from
    the recurrence on those subsets alone.
    """
    n = len(m)
    subsets = colex_subsets(n, k)
    if d is None:
        return _enumerate_approx(m, k, subsets)
    jacobi = n - k <= 3 and 2 * k > n
    memo = {}
    classes = {}
    reference_subset = None
    reference = None
    checked = 0
    for subset in islice(subsets, _direct_count(n, k) if jacobi else None):
        checked += 1
        key = tuple([m[a][b] for i, a in enumerate(subset) for b in subset[i + 1 :]])
        coefficients = memo.get(key)
        if coefficients is None:
            gauge = _class_key(m, subset)
            coefficients = classes.get(gauge)
            if coefficients is None:
                coefficients, _ = _recurrence(_principal_submatrix(m, subset), EXACT)
                if gauge is not None and len(classes) < _MEMO_BOUND:
                    classes[gauge] = coefficients
            if len(memo) < _MEMO_BOUND:
                memo[key] = coefficients
        if reference is None:
            reference_subset = subset
            reference = coefficients
        elif coefficients != reference:
            return _negative_report(
                k,
                reference_subset,
                subset,
                _polynomial(reference, d),
                _polynomial(coefficients, d),
                checked,
                False,
            )
    reference_poly = _polynomial(reference, d)
    # colex order on k-subsets is reverse colex order on their complements
    complements = list(colex_subsets(n, n - k))[::-1] if jacobi else ()
    if checked < len(complements):
        rest = complements[checked:]
        miss = _first_deletion_miss(m, adjugates(), rest, reference)
        if miss is not None:
            index, coefficients = miss
            subset = tuple(v for v in range(n) if v not in rest[index])
            return _negative_report(
                k,
                reference_subset,
                subset,
                reference_poly,
                _polynomial(coefficients, d),
                checked + index + 1,
                False,
            )
        checked += len(rest)
    return MonomorphyReport(
        k=k, monomorphic=True, common_poly=reference_poly, subsets_checked=checked
    )


def _enumerate_approx(m, k, subsets):
    """_enumerate for float pairs: every subset gets its own polynomial,
    compared by _compare_polys so that fragile is reported. No memo: float
    keys would equate -0.0 with 0.0, whose polynomials print differently."""
    reference_subset = None
    reference_poly = None
    checked = 0
    fragile_any = False
    for subset in subsets:
        checked += 1
        descending, _ = _recurrence(_principal_submatrix(m, subset), APPROX)
        poly = _polynomial(descending, None)
        if reference_poly is None:
            reference_subset = subset
            reference_poly = poly
            continue
        equal, fragile = _compare_polys(reference_poly, poly)
        fragile_any = fragile_any or fragile
        if not equal:
            return _negative_report(
                k, reference_subset, subset, reference_poly, poly, checked, fragile_any
            )
    return MonomorphyReport(
        k=k,
        monomorphic=True,
        common_poly=reference_poly,
        subsets_checked=checked,
        fragile=fragile_any,
    )


def monomorphy_profile(g):
    """MonomorphyReport for every k in 1..n. The label matrix is built once,
    and the adjugates of the Jacobi route once, on first need, at the n - 1
    points the largest such k asks for."""
    if not isinstance(g, HermitianStructure):
        raise InputError("monomorphy_profile takes a HermitianStructure")
    m, d = _label_matrix(g)
    adjugates = cache(lambda: _adjugates(m, g.n - 1))
    return {k: _enumerate(m, d, k, adjugates) for k in range(1, g.n + 1)}


@dataclass(frozen=True)
class DetConstancyReport:
    p: int
    constant: bool
    value: Optional[GaussianScalar] = None
    witness: Optional[tuple] = None
    witness_values: Optional[tuple] = None
    subsets_checked: int = 0


def det_constancy(g, p):
    """Check that all p x p principal minors of g agree, in colex order.
    Exact mode compares the integer minors of the A of _label_matrix, which
    are D^p times those of M, and divides only the values it reports."""
    if not isinstance(g, HermitianStructure):
        raise InputError("det_constancy takes a HermitianStructure")
    if not isinstance(p, int) or isinstance(p, bool) or not 1 <= p <= g.n:
        raise InputError(f"minor order must satisfy 1 <= p <= {g.n}, got {p!r}")
    a, d = _label_matrix(g)

    def scalar(value):
        return GaussianScalar(_descaled(value, d, p), 0, g.mode)

    reference_subset = None
    reference = None
    checked = 0
    for subset in colex_subsets(g.n, p):
        checked += 1
        value = _minor(a, subset, g.mode)[0]
        if reference is None:
            reference_subset = subset
            reference = value
            continue
        if not close(value, reference, g.mode):
            return DetConstancyReport(
                p=p,
                constant=False,
                witness=(reference_subset, subset),
                witness_values=(scalar(reference), scalar(value)),
                subsets_checked=checked,
            )
    return DetConstancyReport(
        p=p, constant=True, value=scalar(reference), subsets_checked=checked
    )


@dataclass(frozen=True)
class WindowTransferReport:
    """Result of the window-sum transfer check.

    hypothesis_holds: every (p+r)-window has the same p-subset sum.
    conclusion_holds: the table itself is constant.
    lemma_applicable: n >= 2p + r, the range where the transfer lemma
    promises hypothesis implies conclusion.
    """

    n: int
    p: int
    r: int
    hypothesis_holds: bool
    conclusion_holds: bool
    lemma_applicable: bool
    window_sum: Optional[object] = None
    constant_value: Optional[object] = None
    hypothesis_witness: Optional[tuple] = None
    conclusion_witness: Optional[tuple] = None


def pouzet_transfer_check(table, p, r, n=None):
    """Exercise the transfer lemma on an explicit table of p-subset values.

    table maps every p-subset of range(n), given as a sorted tuple, to a
    rational. When n is omitted it is inferred as 1 + the largest vertex
    mentioned. Requires p >= 1, r >= 0 and n >= p + r.
    """
    if not isinstance(p, int) or isinstance(p, bool) or p < 1:
        raise InputError(f"p must be a positive int, got {p!r}")
    if not isinstance(r, int) or isinstance(r, bool) or r < 0:
        raise InputError(f"r must be a nonnegative int, got {r!r}")
    entries = {}
    top = -1
    for key, value in table.items():
        key = tuple(key)
        if len(key) != p or len(set(key)) != p or sorted(key) != list(key):
            raise InputError(f"table key {key!r} is not a sorted {p}-subset")
        for v in key:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise InputError(f"table key {key!r} has a bad vertex")
            top = max(top, v)
        entries[key] = rational(value)
    if n is None:
        n = top + 1
    if top >= n:
        raise InputError(f"table mentions vertex {top} but n={n}")
    if n < p + r:
        raise InputError(f"need n >= p + r, got n={n}, p={p}, r={r}")
    for subset in colex_subsets(n, p):
        if subset not in entries:
            raise InputError(f"table is missing the {p}-subset {subset}")

    hypothesis = True
    hypothesis_witness = None
    window_sum = None
    reference_window = None
    for window in colex_subsets(n, p + r):
        total = sum(entries[sub] for sub in combinations(window, p))
        if window_sum is None:
            window_sum = total
            reference_window = window
        elif total != window_sum:
            hypothesis = False
            hypothesis_witness = (reference_window, window)
            break

    conclusion = True
    conclusion_witness = None
    first_key = next(iter(colex_subsets(n, p)))
    constant_value = entries[first_key]
    for subset in colex_subsets(n, p):
        if entries[subset] != constant_value:
            conclusion = False
            conclusion_witness = (first_key, subset)
            break

    return WindowTransferReport(
        n=n,
        p=p,
        r=r,
        hypothesis_holds=hypothesis,
        conclusion_holds=conclusion,
        lemma_applicable=n >= 2 * p + r,
        window_sum=window_sum if hypothesis else None,
        constant_value=constant_value if conclusion else None,
        hypothesis_witness=hypothesis_witness,
        conclusion_witness=conclusion_witness,
    )
