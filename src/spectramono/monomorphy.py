"""Spectral monomorphy by enumeration.

A structure is k-spectrally monomorphic when all of its k-vertex
substructures share one characteristic polynomial. The checks here
enumerate substructures in colexicographic order, so the first mismatching
pair of subsets is deterministic and becomes the reported witness. In
exact mode a subset of at most three vertices reads its polynomial from
its labels in closed form (charpoly._closed_form). A larger one pays a
recurrence only when neither its slice of the label matrix nor the gauge
class of that slice, its norms and phase products, was seen before in the
same enumeration: a selector twist keeps every characteristic polynomial,
and it keeps the class too.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache
from itertools import combinations, islice
from typing import Optional

from .charpoly import (
    RealPolynomial,
    _adjugates,
    _closed_form,
    _first_deletion_miss,
    _label_matrix,
    _minor,
    _polynomial,
    _principal_submatrix,
    _recurrence,
    char_poly,  # noqa: F401 - not called here; bench/tracing.py rebinds it
)
from .combinat import colex_subsets
from .core import HermitianStructure, _descaled, _phase_products, _require
from .core import substructure  # noqa: F401 - as char_poly
from .errors import InputError
from .scalars import APPROX, EXACT, GaussianScalar, _compare_polys, close, rational


@dataclass(frozen=True)
class MonomorphyReport:
    """Verdict of the k-subset enumeration.

    witness, present exactly when monomorphic is False, is the pair
    (reference subset, first differing subset) in colex order, with the two
    characteristic polynomials alongside. fragile is only ever True in
    approx mode; it is meant to flag a comparison that nearly flipped, but
    the leading coefficients of two monic polynomials always sit that
    close to the tolerance, so it is True whenever two subsets are
    compared.
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
    submatrix, with the value char_poly(substructure(g, subset)) has. In
    exact mode k <= 3 reads it from the subset's labels in closed form
    (charpoly._closed_form); at k >= 4 subsets with equal or
    gauge-equivalent submatrices share one recurrence, and large k goes
    through Jacobi's complementary minors (see
    charpoly._first_deletion_miss).
    """
    _require(g, HermitianStructure, "is_k_spectrally_monomorphic")
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= g.n:
        raise InputError(f"subset size must satisfy 1 <= k <= {g.n}, got {k!r}")
    m, d = _label_matrix(g)
    return _enumerate(m, d, k, lambda: _adjugates(m, k))


def _direct_count(n, k):
    """ceil((n/k)^4): about the cost of the order-n recurrence behind the
    adjugates, counted in order-k recurrences. Enumerating that many
    subsets directly first keeps witnesses found early as cheap as before."""
    return -(-(n**4) // k**4)


# entries of each per-call memo of _enumerate
_MEMO_BOUND = 1024


def _class_key(m, subset):
    """The gauge class of the slice A[S] of S = subset, or None when
    a(s, u) = 0 for some u in S, s = subset[0]: the norms |a(s, u)|^2 of
    the u after s, in subset order, then the phase products
    W_s(u, v) = a(s, u) a(u, v) conj(a(s, v)) for u < v after s, of
    core._phase_products. With E = diag(1, a(s, u), ...), E A[S] E^-1 has
    row s all ones, column s the norms and entry (u, v) equal to
    W_s(u, v) / |a(s, v)|^2, so two slices with one key are similar and
    share their polynomial."""
    s, rest = subset[0], subset[1:]
    row = m[s]
    lead = [row[u] for u in rest]
    if (0, 0) in lead:
        return None
    return tuple([re * re + im * im for re, im in lead] + _phase_products(m, s, rest))


def _enumerate(m, d, k, adjugates):
    """MonomorphyReport for the k-subsets of the (A, D) matrix m of
    _label_matrix, in colex order, in either arithmetic mode (d None is
    approx).

    One loop gives each subset S the descending coefficients of P_A[S] and
    compares them with the reference's, those of the first subset; the
    first subset that differs is the witness. Only these two steps depend
    on the mode.

    Exact mode compares the integer coefficient lists with ==: with one D
    and one k, P_A[S] = P_A[T] exactly when P_M[S] = P_M[T]. At k <= 3
    each subset's list is read from its labels by charpoly._closed_form,
    with no recurrence and no memo. At k >= 4 two per-call memos stand in
    front of the recurrence. The first maps the strict upper triangle of
    A[S], which fixes the Hermitian zero-diagonal A[S], to its list, so
    each distinct submatrix is reduced once, checks included. On a miss
    there, the second maps the gauge class of A[S] (_class_key) to its
    list, so a slice that differs from an earlier one only by a diagonal
    similarity, as a selector twist makes it, is not reduced again; a slice
    with a zero in its lead row has no class key. Each memo takes at most
    1024 entries (_MEMO_BOUND) and then inserts nothing more, so neither
    grows with C(n, k).

    Approx mode reduces every subset by the recurrence, at every k, and
    compares the float lists with _compare_polys, reporting fragile when
    any comparison nearly flipped. It takes no memo: float keys would
    equate -0.0 with 0.0, whose polynomials print differently.

    In exact mode with k >= 4 and n - k <= 3 (so 2k > n), the subsets after
    the first _direct_count(n, k) are checked against the reference's
    coefficients by _first_deletion_miss, through Jacobi's complementary
    minors and with the recurrence as its cross-check. adjugates() gives
    what _adjugates gives for at least k points; it is called at most
    once, and may be a cache shared across k. The reference and witness
    polynomials come from the recurrence on those subsets alone, and only
    they and common_poly become RealPolynomials.
    """
    n = len(m)
    jacobi = d is not None and k >= 4 and n - k <= 3
    memo = {}
    classes = {}
    reference = None
    monomorphic = True
    fragile = False
    subsets = islice(colex_subsets(n, k), _direct_count(n, k) if jacobi else None)
    for checked, subset in enumerate(subsets, 1):
        if d is None:
            coefficients, _ = _recurrence(_principal_submatrix(m, subset), APPROX)
        elif k <= 3:
            coefficients = _closed_form(m, subset)
        else:
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
            reference = coefficients
            continue
        if d is None:
            monomorphic, nearly = _compare_polys(reference, coefficients)
            fragile = fragile or nearly
        else:
            monomorphic = coefficients == reference
        if not monomorphic:
            break
    if jacobi and monomorphic:
        # colex order on k-subsets is reverse colex order on their complements
        rest = list(colex_subsets(n, n - k))[::-1][checked:]
        miss = _first_deletion_miss(m, adjugates(), rest, reference) if rest else None
        if miss is None:
            checked += len(rest)
        else:
            index, coefficients = miss
            subset = tuple(v for v in range(n) if v not in rest[index])
            monomorphic = False
            checked += index + 1
    # the first subset in colex order is the reference, and after a miss
    # subset and coefficients are the witness's
    reference_poly = _polynomial(reference, d)
    return MonomorphyReport(
        k=k,
        monomorphic=monomorphic,
        common_poly=reference_poly if monomorphic else None,
        witness=None if monomorphic else (tuple(range(k)), subset),
        witness_polys=(
            None if monomorphic else (reference_poly, _polynomial(coefficients, d))
        ),
        subsets_checked=checked,
        fragile=fragile,
    )


def monomorphy_profile(g):
    """MonomorphyReport for every k in 1..n. The label matrix is built once,
    and the adjugates of the Jacobi route once, on first need, at the n - 1
    points the largest such k asks for."""
    _require(g, HermitianStructure, "monomorphy_profile")
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
    _require(g, HermitianStructure, "det_constancy")
    if not isinstance(p, int) or isinstance(p, bool) or not 1 <= p <= g.n:
        raise InputError(f"minor order must satisfy 1 <= p <= {g.n}, got {p!r}")
    a, d = _label_matrix(g)

    def scalar(value):
        return GaussianScalar(_descaled(value, d, p), 0, g.mode)

    reference = None
    for checked, subset in enumerate(colex_subsets(g.n, p), 1):
        value = _minor(a, subset, g.mode)[0]
        if reference is None:
            reference = value
        elif not close(value, reference, g.mode):
            return DetConstancyReport(
                p=p,
                constant=False,
                witness=(tuple(range(p)), subset),
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
    if n is not None and (not isinstance(n, int) or isinstance(n, bool)):
        raise InputError(f"n must be an int, got {n!r}")
    if not isinstance(table, Mapping):
        raise InputError("table must map p-subsets to values")
    entries = {}
    top = -1
    for key, value in table.items():
        try:
            key = tuple(key)
        except TypeError:
            raise InputError(f"table key {key!r} is not a sorted {p}-subset") from None
        for v in key:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise InputError(f"table key {key!r} has a bad vertex")
            top = max(top, v)
        if len(key) != p or len(set(key)) != p or sorted(key) != list(key):
            raise InputError(f"table key {key!r} is not a sorted {p}-subset")
        entries[key] = rational(value)
    if n is None:
        n = top + 1
    if top >= n:
        raise InputError(f"table mentions vertex {top} but n={n}")
    if n < p + r:
        raise InputError(f"need n >= p + r, got n={n}, p={p}, r={r}")
    # one walk requires every p-subset and looks for one that differs from
    # the first in colex order, (0, ..., p - 1)
    constant_value = entries.get(tuple(range(p)))
    conclusion_witness = None
    for subset in colex_subsets(n, p):
        value = entries.get(subset)
        if value is None:
            raise InputError(f"table is missing the {p}-subset {subset}")
        if conclusion_witness is None and value != constant_value:
            conclusion_witness = (tuple(range(p)), subset)

    window_sum = None
    hypothesis_witness = None
    for window in colex_subsets(n, p + r):
        total = sum(entries[sub] for sub in combinations(window, p))
        if window_sum is None:
            window_sum = total
        elif total != window_sum:
            hypothesis_witness = (tuple(range(p + r)), window)
            break

    return WindowTransferReport(
        n=n,
        p=p,
        r=r,
        hypothesis_holds=hypothesis_witness is None,
        conclusion_holds=conclusion_witness is None,
        lemma_applicable=n >= 2 * p + r,
        window_sum=None if hypothesis_witness else window_sum,
        constant_value=None if conclusion_witness else constant_value,
        hypothesis_witness=hypothesis_witness,
        conclusion_witness=conclusion_witness,
    )
