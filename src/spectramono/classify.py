"""Structure theorems for k-spectrally monomorphic Hermitian structures.

Every positive verdict is constructive: the classifier returns a canonical
structure together with a selector that maps it back onto the input, and
that selector is re-applied to the canonical structure and checked against
the input before the verdict is returned, by core._check_action, the one
re-application check that normalize_at and are_equivalent use too.
Negative verdicts carry an enumeration witness, a concrete pair of subsets
whose characteristic polynomials differ, found by the brute-force check.
The two routes are independent, so a verdict is never just the theorem's
word for it.

The reduction never needs the (possibly irrational) common modulus m: it
works with the phase products g(0,u) g(u,v) conj(g(0,v)), whose values
divided by m^2 are the rescaled phases W(u,v). Those stay inside the exact
field for exact inputs, and in exact mode the reduction forms the products
on the Gaussian-integer matrix A = D * M of _label_matrix and compares them
against the product at (1,2) directly, without dividing at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .core import (
    HermitianStructure,
    Selector,
    Tournament,
    _check_action,
    _descaled,
    _finite,
    _from_pairs,
    _phase_products,
    _require,
    _selector_from_pairs,
    common_modulus_squared_of_pairs,
    descending_score_order,
    is_transitive,
    substructure,  # noqa: F401 - not called here; bench/tracing.py rebinds it
)
from .charpoly import _cross_checked, _label_matrix
from .constructions import DrtCertificate, is_doubly_regular
from .errors import (
    InputError,
    InvariantError,
    NotTwoMonomorphicError,
    ReductionError,
    TheoremRangeError,
)
from .monomorphy import is_k_spectrally_monomorphic
from .scalars import EXACT, GaussianScalar, _failed, _pairs_match, _too_close, negligible


@dataclass(frozen=True)
class CanonicalReduction:
    """Outcome of rescaling a 2-monomorphic structure to canonical labels.

    gamma is the canonical label with |gamma|^2 = modulus_squared and
    nonnegative imaginary part. tournament orients each pair by whether its
    rescaled phase product equals gamma (vertex 0 dominates everything by
    construction). canonical carries gamma on the arcs of that tournament,
    and selector is a unit selector that maps canonical onto the original
    input, verified before this object is built: the pairs of
    apply_selector(canonical, selector) equal those of the input's
    _label_matrix at every ordered pair, literally in exact mode and by the
    rule of _pairs_match, relative to the largest component, in approx
    mode (core._check_action). canonical and selector hold only their
    pairs; their labels and values are views, built on first read, and
    gamma is built on its own from its pair.
    """

    modulus_squared: object
    gamma: GaussianScalar
    real: bool
    tournament: Tournament
    canonical: HermitianStructure
    selector: Selector


def _scalar(pair, q, mode):
    """The GaussianScalar pair / q for a positive int q in exact mode; an
    approx pair (q None) as it is."""
    return GaussianScalar(_descaled(pair[0], q, 1), _descaled(pair[1], q, 1), mode)


def _lifted_selector(m, gamma, lift, s):
    """Components of lift^2 * d for the selector d(0) = 1,
    d(v) = conj(g(0,v)) * gamma / msq, where gamma carries one factor of lift."""
    gr, gi = gamma
    d = [(lift * lift, 0)]
    for v in range(1, len(m)):
        re, im = m[0][v]
        d.append(((re * gr + im * gi) * s, (re * gi - im * gr) * s))
    return d


def reduce_to_canonical_labels(g):
    """Rescale g so every label is gamma or conj(gamma), gamma per pair
    chosen by a unit selector. Needs n >= 5 so that the two-value phase
    dichotomy is forced rather than assumed.

    Raises ReductionError when g is not 2-monomorphic with nonzero labels,
    or when some pair's phase product falls outside {gamma, conj(gamma)}.

    The work runs on the (re, im) pairs of _label_matrix. Exact mode takes
    the Gaussian-integer matrix A = D * M, whose common modulus squared msq
    is D^2 times that of g, and never divides: the phase products of A
    (core._phase_products, walked once) are D * msq times the rescaled
    phases, gamma among them. Approx mode works on the float components
    and divides by msq up front. Structures are
    built only for the returned CanonicalReduction, from those pairs: the
    canonical structure by _from_pairs over D * msq, and the selector by
    _selector_from_pairs, in exact mode from msq^2 * d over msq^2; the one
    scalar built is gamma. Between the two, the selector's pairs are
    re-applied to the canonical structure and checked against g by
    core._check_action, before the selector's own checks run.
    """
    _require(g, HermitianStructure, "reduce_to_canonical_labels")
    n = g.n
    if n < 5:
        raise InputError(f"canonical reduction needs n >= 5, got {n}")
    mode = g.mode
    m, den = _label_matrix(g)
    try:
        msq = common_modulus_squared_of_pairs(m, mode)
    except NotTwoMonomorphicError as exc:
        raise ReductionError("not_two_monomorphic", str(exc)) from exc
    # the selector carries lift^2 (over q = lift^2 in exact mode) and each
    # phase product is multiplied by s; the phases and gamma then carry the
    # positive factor shown
    if mode == EXACT:
        lift, s, shown, q = msq, 1, msq * den, msq * msq
    else:
        lift, s, shown, q = 1.0, 1.0 / msq, None, None

    products = _phase_products(m, 0, range(1, n))
    phases = products if mode == EXACT else [_finite((re * s, im * s), mode) for re, im in products]
    first = gamma = phases[0]
    real = negligible(gamma[1], 0, mode)
    if not real and gamma[1] < 0:
        gamma = (gamma[0], -gamma[1])
    gamma_bar = (gamma[0], -gamma[1])
    # vertex 0 dominates everything, and u beats v when its phase equals
    # gamma or gamma is real; a phase outside {gamma, gamma_bar}, named by
    # the unswapped phase at (1,2) first, ends the reduction
    rows = [((1 << n) - 1) & ~1] + [0] * (n - 1)
    for (u, v), w in zip(combinations(range(1, n), 2), phases):
        beats = _pairs_match(w, gamma, mode)
        if not (beats or _pairs_match(w, gamma_bar, mode)):
            raise ReductionError(
                "phase_outside_pair",
                f"phase product at pair ({u},{v}) is "
                f"{_scalar(w, shown, mode).to_text()}, outside "
                f"{{{_scalar(first, shown, mode).to_text()}, "
                f"{_scalar((first[0], -first[1]), shown, mode).to_text()}}}",
                pair=(u, v),
            )
        if real or beats:
            rows[u] |= 1 << v
        else:
            rows[v] |= 1 << u
    if real and mode != EXACT:
        # drop float noise so the constant canonical form is exactly symmetric
        gamma = gamma_bar = (gamma[0], 0.0)

    # gamma on the arcs of rows, gamma_bar against them, over shown; a real
    # gamma equals gamma_bar, so the structure is constant
    zero = (0, 0) if mode == EXACT else (0.0, 0.0)
    canonical = _from_pairs(
        tuple(
            tuple(zero if x == y else gamma if rows[x] >> y & 1 else gamma_bar for y in range(n))
            for x in range(n)
        ),
        shown,
        mode,
    )
    d = _lifted_selector(m, gamma, lift, s)
    failed = "canonical reduction selector failed to reproduce input at ({x},{y})"
    _check_action(canonical, (d, q), 1, g, failed, "the reduced form misses the input at ({x},{y})")
    selector = _selector_from_pairs(d, q, mode)
    return CanonicalReduction(
        modulus_squared=_descaled(msq, den, 2),
        gamma=_scalar(gamma, shown, mode),
        real=real,
        tournament=Tournament(n, rows),
        canonical=canonical,
        selector=selector,
    )


@dataclass(frozen=True)
class RealConstant:
    """All labels equivalent to one real constant; monomorphic for every k."""

    value: GaussianScalar


@dataclass(frozen=True)
class CRepTransitive:
    """c-representation of a transitive tournament: labels are gamma along a
    linear order. order lists the vertices from most to least dominant."""

    label: GaussianScalar
    order: tuple


@dataclass(frozen=True)
class IRepDominatedNonTransitive:
    """Purely imaginary gamma on a non-transitive tournament whose vertex 0
    dominates all others. Only arises for k = 3."""

    tournament: Tournament
    label: GaussianScalar


@dataclass(frozen=True)
class IRepDRTHat:
    """Purely imaginary gamma on hat(T) for a doubly regular tournament T.
    Only arises for k = n - 3."""

    tournament: Tournament
    certificate: DrtCertificate


@dataclass(frozen=True)
class NotMonomorphic:
    reason: str
    pair: Optional[tuple] = None
    witness: Optional[tuple] = None
    witness_polys: Optional[tuple] = None


@dataclass(frozen=True)
class Classification:
    k: int
    monomorphic: bool
    variant: object
    canonical: Optional[HermitianStructure] = None
    witness_selector: Optional[Selector] = None


def _negative(g, k, reason, pair=None, degenerate=False):
    """Build a NotMonomorphic verdict, attaching the enumeration witness.

    When the theorem says g cannot be k-monomorphic, enumeration must
    agree; a silent pass there means the classifier and the brute-force
    check contradict each other. A degenerate input lies outside the
    theorems' hypotheses (zero or unequal-modulus labels), and enumeration
    may or may not find a witness there: the all-zero structure is
    spectrally constant at every k, yet still lands outside every
    characterized class. In approx mode the reduction's label tests and
    the enumeration's coefficient tests use different tolerances, so there
    a disagreement is _too_close input rather than a broken invariant.
    """
    report = is_k_spectrally_monomorphic(g, k)
    if report.monomorphic and not degenerate:
        raise _failed(
            g.mode,
            f"classifier ruled out k={k} monomorphy but enumeration found "
            f"all {report.subsets_checked} subsets in agreement",
            _too_close(
                f"all {report.subsets_checked} {k}-subset polynomials agree, yet "
                f"the labels rule out k={k} monomorphy ({reason}): they miss "
                "its canonical form"
            ),
        )
    return Classification(
        k=k,
        monomorphic=False,
        variant=NotMonomorphic(
            reason=reason,
            pair=pair,
            witness=report.witness,
            witness_polys=report.witness_polys,
        ),
    )


def _positive(k, reduction, variant):
    return Classification(
        k=k,
        monomorphic=True,
        variant=variant,
        canonical=reduction.canonical,
        witness_selector=reduction.selector,
    )


def _is_imaginary(gamma, mode):
    return negligible(gamma.re, gamma.im, mode)


def _classify(g, k, refine):
    """The verdict flow every theorem shares: reduce to canonical labels,
    settle the real-constant and transitive shapes, and hand a
    non-transitive reduction to the theorem's refine(g, k, reduction)."""
    try:
        reduction = reduce_to_canonical_labels(g)
    except ReductionError as exc:
        return _negative(
            g,
            k,
            exc.detail,
            pair=exc.pair,
            degenerate=exc.reason == "not_two_monomorphic",
        )
    if reduction.real:
        return _positive(k, reduction, RealConstant(value=reduction.gamma))
    if is_transitive(reduction.tournament):
        return _positive(
            k,
            reduction,
            CRepTransitive(
                label=reduction.gamma,
                order=descending_score_order(reduction.tournament),
            ),
        )
    return refine(g, k, reduction)


_NEITHER = "label is neither real nor purely imaginary on a non-transitive tournament"


def _dominated_i_rep(g, k, reduction):
    """k = 3: any purely imaginary gamma is an i-representation, whatever
    the orientation."""
    if not _is_imaginary(reduction.gamma, g.mode):
        return _negative(g, k, _NEITHER)
    return _positive(
        k,
        reduction,
        IRepDominatedNonTransitive(
            tournament=reduction.tournament, label=reduction.gamma
        ),
    )


def _rigid(g, k, reduction):
    """k = 4 and mid-range k: no non-transitive shape remains."""
    return _negative(
        g, k, f"non-transitive tournament cannot be {k}-spectrally monomorphic here"
    )


def _drt_hat(g, k, reduction):
    """k = n - 3: a purely imaginary gamma on hat(T) with T doubly regular."""
    if not _is_imaginary(reduction.gamma, g.mode):
        return _negative(g, k, _NEITHER)
    base = reduction.tournament.subtournament(range(1, g.n))
    certificate = is_doubly_regular(base)
    if certificate is None:
        return _negative(
            g, k, "the tournament under the dominating vertex is not doubly regular"
        )
    return _positive(
        k, reduction, IRepDRTHat(tournament=base, certificate=certificate)
    )


def classify_k3(g):
    """Classify 3-spectral monomorphy for n >= 5.

    Exactly three shapes are possible: a real constant, a c-representation
    of a transitive tournament, or an i-representation of a tournament with
    a dominating vertex. In the third shape the tournament need not be
    transitive: every 3-subset of an i-representation has characteristic
    polynomial x^3 - 3 m^2 x regardless of orientation.
    """
    _require(g, HermitianStructure, "classify_k3")
    if g.n < 5:
        raise TheoremRangeError(
            f"the k=3 characterization applies for n >= 5, got n={g.n}"
        )
    return _classify(g, 3, _dominated_i_rep)


def classify_k4(g):
    """Classify 4-spectral monomorphy for n >= 7. The i-representation
    escape hatch closes at k = 4: 4-subsets of an i-representation see the
    orientation through their determinants, so only the real-constant and
    transitive shapes remain."""
    _require(g, HermitianStructure, "classify_k4")
    if g.n < 7:
        raise TheoremRangeError(
            f"the k=4 characterization applies for n >= 7, got n={g.n}"
        )
    return _classify(g, 4, _rigid)


def classify_mid_k(g, k):
    """Classify k-spectral monomorphy for 4 <= k <= n - 4 (so n >= 8).
    Same dichotomy as k = 4: real constant or transitive c-representation."""
    _require(g, HermitianStructure, "classify_mid_k")
    if not isinstance(k, int) or isinstance(k, bool):
        raise InputError(f"k must be an int, got {k!r}")
    if g.n < 8 or not 4 <= k <= g.n - 4:
        raise TheoremRangeError(
            f"the mid-range characterization applies for 4 <= k <= n - 4 "
            f"with n >= 8, got k={k}, n={g.n}"
        )
    return _classify(g, k, _rigid)


def classify_n_minus_3(g):
    """Classify (n-3)-spectral monomorphy for n >= 6.

    For n >= 7 a third shape joins the real-constant and transitive ones:
    an i-representation of hat(T) with T doubly regular. At n = 6 the
    counting argument behind that refinement runs out of vertices and the
    correct boundary statement is the k = 3 characterization, so that case
    delegates (n - 3 = 3 there, and no 5-vertex doubly regular tournament
    exists to refine it anyway).
    """
    _require(g, HermitianStructure, "classify_n_minus_3")
    n = g.n
    if n < 6:
        raise TheoremRangeError(
            f"the k = n - 3 characterization applies for n >= 6, got n={n}"
        )
    if n == 6:
        return classify_k3(g)
    return _classify(g, n - 3, _drt_hat)


def c3_via_determinants(g, x1, x, y):
    """Count 3-cycles through the pair {x, y} in the tournament carried by an
    i-representation, using only 4 x 4 determinants:

        C3(x, y) = ( sum over z of det g[{x1, x, y, z}] - (n - 3) ) / 8

    where x1 is a vertex dominating every other (g(x1, v) = i m) and z runs
    over the n - 3 remaining vertices. Each determinant is 9 m^4 or m^4
    according to whether {x, y, z} is a 3-cycle. Exact mode only; labels
    must be purely imaginary of one modulus.
    """
    _require(g, HermitianStructure, "c3_via_determinants")
    if g.mode != EXACT:
        raise InputError("c3_via_determinants requires exact mode")
    n = g.n
    names = (x1, x, y)
    if len(set(names)) != 3 or not all(
        isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n for v in names
    ):
        raise InputError(f"need three distinct vertices in range({n}), got {names}")
    # both routes run on slices of the integer matrix A = D * M, whose
    # common modulus squared is D^2 m^2, so each 4 x 4 determinant of A is
    # D^4 times that of M and is compared against D^4 m^4 = msq^2
    a, d = _label_matrix(g)
    msq = common_modulus_squared_of_pairs(a, EXACT)
    for u in range(n):
        for v in range(u + 1, n):
            if a[u][v][0] != 0:
                raise InputError(
                    f"label at ({u},{v}) is {g.label(u, v).to_text()}, "
                    "not purely imaginary"
                )
    for v in range(n):
        if v != x1 and a[x1][v][1] <= 0:
            raise InputError(f"vertex {x1} does not dominate vertex {v}")
    if n < 4:
        raise InputError(f"need n >= 4, got {n}")
    unit = msq * msq
    count = 0
    for z in range(n):
        if z in names:
            continue
        det = _cross_checked(a, (x1, x, y, z), EXACT)
        if det not in (unit, 9 * unit):
            shown = GaussianScalar(_descaled(det, d, 4), 0, EXACT).to_text()
            raise InvariantError(f"4-subset determinant {shown} is not m^4 or 9 m^4")
        # each 9 m^4 adds 8 to the sum over the n - 3 determinants of m^4
        count += det != unit
    return count
