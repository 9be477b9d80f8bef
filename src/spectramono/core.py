"""Hermitian pair structures on a finite vertex set, tournaments, selectors.

A structure assigns a Gaussian scalar g(x, y) to every ordered pair of
distinct vertices with g(x, y) = conj(g(y, x)), so its label matrix is
Hermitian with zero diagonal. A selector rescales labels by
g^d(x, y) = d(x) * g(x, y) * conj(d(y)) where d has nonzero values of one
common modulus. Two structures are equivalent when some selector maps one
onto the other.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations, repeat
from typing import Optional

from .errors import (
    ExactnessError,
    InputError,
    InvariantError,
    ModeMixError,
    NotTwoMonomorphicError,
)
from .scalars import (
    APPROX,
    EXACT,
    GaussianScalar,
    _failed,
    _pairs_match,
    _too_close,
    close,
    negligible,
    ratio,
    real,
    rational_sqrt,
)


class ConstantRepresentationWarning(UserWarning):
    """A real unit label collapses a tournament representation to a constant."""


def _check_vertex(n, x, what="vertex"):
    if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < n:
        raise InputError(f"{what} {x!r} out of range for n={n}")


def _tuple_of(values, what):
    """tuple(values), where values that are not iterable are an InputError
    naming what they should have been."""
    try:
        return tuple(values)
    except TypeError:
        raise InputError(f"{what} must be an iterable, got {values!r}") from None


def _sorted_vertices(n, vertices, what):
    """The distinct vertices in an iterable, ascending, each checked to be
    one of 0..n-1; `what` names the caller."""
    vs = _tuple_of(vertices, f"{what} vertices")
    for v in vs:
        _check_vertex(n, v)
    if not vs:
        raise InputError(f"{what} needs at least one vertex")
    return sorted(set(vs))


def _require(value, kind, caller):
    """Raise InputError("<caller> takes a <kind>") unless value is an
    instance of the class kind: the argument check of the entry points."""
    if not isinstance(value, kind):
        raise InputError(f"{caller} takes a {kind.__name__}")


def _check_order(n):
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InputError(f"a tournament needs at least one vertex, got {n!r}")


class HermitianStructure:
    """Immutable Hermitian zero-diagonal label matrix over Gaussian scalars.

    A structure stores its labels only as the (re, im) pair matrix (A, D)
    of _label_matrix, which every kernel reads. Construction clears the
    given labels once into those pairs and checks the zero diagonal and the
    conjugate symmetry on them. Structures the library builds itself (the
    selector action, representations, substructures, normal and canonical
    forms) arrive as such pairs through _from_pairs. Both routes end in
    _assembled, the one place that checks a structure and sets its slots.

    labels, the GaussianScalars, is a view of the pairs (see _scalars_of),
    built on its first read and kept, whichever route built the structure.
    Exact equality and hashing read the pairs, since (A, D) is canonical
    (_from_pairs). Approx structures compare their pairs by the rule of
    _pairs_match, relative to the largest component, as _check_action
    does, and do not hash.
    """

    __slots__ = ("n", "mode", "_matrix", "_labels")

    def __init__(self, labels):
        rows = tuple(_tuple_of(row, "a label row") for row in _tuple_of(labels, "label rows"))
        n = len(rows)
        if n == 0:
            raise InputError("a structure needs at least one vertex")
        for row in rows:
            if len(row) != n:
                raise InputError(f"label matrix must be {n}x{n}")
        mode = _one_mode(
            [e for row in rows for e in row], "label", "labels mix exact and approx scalars"
        )
        _assembled(self, *_cleared(rows, mode), mode)

    @property
    def labels(self):
        """The labels as a tuple of row tuples of GaussianScalars."""
        if self._labels is None:
            object.__setattr__(self, "_labels", _scalars_of(*self._matrix, self.mode))
        return self._labels

    def __setattr__(self, name, value):
        raise AttributeError("HermitianStructure is immutable")

    def label(self, x, y):
        _check_vertex(self.n, x)
        _check_vertex(self.n, y)
        return self.labels[x][y]

    def common_modulus_squared(self):
        """The shared |label|^2 when all labels are nonzero of equal modulus.

        Raises NotTwoMonomorphicError otherwise. This is the precondition of
        every normalization step: a nonzero structure has one common label
        modulus exactly when all two-vertex substructures share their
        characteristic polynomial.
        """
        a, d = _label_matrix(self)
        return _descaled(common_modulus_squared_of_pairs(a, self.mode), d, 2)

    def __eq__(self, other):
        if not isinstance(other, HermitianStructure):
            return NotImplemented
        if other.mode != self.mode:
            raise ModeMixError("cannot compare structures of different modes")
        if other.n != self.n:
            return False
        if self.mode == EXACT:
            return self._matrix == other._matrix
        return all(
            _pairs_match(p, q, APPROX)
            for row, other_row in zip(self._matrix[0], other._matrix[0])
            for p, q in zip(row, other_row)
        )

    def __hash__(self):
        if self.mode == APPROX:
            raise TypeError("approx structures compare within eps and cannot hash")
        return hash(self._matrix)

    def __repr__(self):
        return f"HermitianStructure(n={self.n}, mode={self.mode!r})"


def common_modulus_squared_of_pairs(pairs, mode):
    """HermitianStructure.common_modulus_squared over a square matrix of
    (re, im) label components. On the A of _label_matrix it is the int
    D^2 * |label|^2."""
    n = len(pairs)
    if n < 2:
        raise NotTwoMonomorphicError("no labels on fewer than two vertices")
    msq = None
    for x in range(n):
        for y in range(x + 1, n):
            re, im = pairs[x][y]
            if negligible(re, 0, mode) and negligible(im, 0, mode):
                raise NotTwoMonomorphicError(f"label at ({x},{y}) is zero")
            other = re * re + im * im
            if mode != EXACT and not math.isfinite(other):
                raise InputError("approx labels too large: |label|^2 overflows floats")
            if msq is None:
                msq = other
            # the literal test spares equal exact moduli a call
            elif other != msq and not negligible(other - msq, msq, mode):
                raise NotTwoMonomorphicError(
                    f"labels at (0,1) and ({x},{y}) have different moduli"
                )
    return msq


def _one_mode(entries, what, mixed):
    """The mode of the entries, a nonempty iterable, each checked in turn
    to be a GaussianScalar ("<what> <entry!r> is not a GaussianScalar", an
    InputError) of the first one's mode (ModeMixError(mixed)). Structures
    and selectors check their scalars here before anything else."""
    mode = None
    for entry in entries:
        if not isinstance(entry, GaussianScalar):
            raise InputError(f"{what} {entry!r} is not a GaussianScalar")
        if mode is None:
            mode = entry.mode
        elif entry.mode != mode:
            raise ModeMixError(mixed)
    return mode


def _label_matrix(g):
    """The label matrix of g as (re, im) component pairs: (A, D), built
    when g was (see _cleared). A is a tuple of row tuples, so no kernel can
    change it. Every exact kernel works on A and divides by a power of D
    only the values it reports.
    """
    return g._matrix


def _cleared(rows, mode):
    """(A, D) for rows of GaussianScalars of one mode, converting each
    distinct scalar object once (equal cells often share one).

    Exact mode gives the Gaussian-integer matrix A of int pairs and the
    positive int D, the lcm of every label component denominator, so that
    the labels are A / D; D is 1 for integral labels. Approx mode gives the
    float components and D = None.
    """
    distinct = {id(e): e for row in rows for e in row}
    if mode == EXACT:
        d = math.lcm(*(c.denominator for e in distinct.values() for c in (e.re, e.im)))
        pairs = {
            key: (e.re.numerator * (d // e.re.denominator), e.im.numerator * (d // e.im.denominator))
            for key, e in distinct.items()
        }
    else:
        d = None
        pairs = {key: (e.re, e.im) for key, e in distinct.items()}
    return tuple([tuple([pairs[id(e)] for e in row]) for row in rows]), d


def _from_pairs(a, d, mode):
    """The HermitianStructure with labels a / d for a pair matrix a (a
    tuple of row tuples of (re, im) pairs) that the library computed: int
    pairs over a positive int d in exact mode, float pairs with d None in
    approx mode. Its (A, D) is what _cleared gives for those labels, so
    exact mode first divides out gcd(d, every component); two structures
    of equal labels then have equal pairs. Approx pairs are kept as given.
    Each source of approx pairs checks them to be finite (_finite) or
    scales finite pairs down, so the labels, built from the pairs on first
    read, raise no error of their own. It ends in _assembled, as
    HermitianStructure does."""
    if mode == EXACT and d != 1:
        g = math.gcd(d, *(c for row in a for pair in row for c in pair))
        if g != 1:
            d //= g
            a = tuple([tuple([(re // g, im // g) for re, im in row]) for row in a])
    return _assembled(object.__new__(HermitianStructure), a, d, mode)


def _assembled(self, a, d, mode):
    """self, a new HermitianStructure with the pair matrix a over d: a is
    checked by _check_hermitian and every slot is set, the labels view
    still unbuilt. Both constructors end here."""
    _check_hermitian(a, mode)
    object.__setattr__(self, "n", len(a))
    object.__setattr__(self, "mode", mode)
    object.__setattr__(self, "_matrix", (a, d))
    object.__setattr__(self, "_labels", None)
    return self


def _scalars_of(rows, d, mode):
    """The GaussianScalars of pair rows over d, as a tuple of row tuples:
    the labels view of a structure, and in one row the values view of a
    selector. Exact mode makes one scalar per distinct pair, so equal cells
    share it; approx mode one per entry, since merging entries by == would
    merge 0.0 and -0.0, which print apart."""
    if mode == EXACT:
        made = {
            pair: GaussianScalar(ratio(pair[0], d), ratio(pair[1], d), mode)
            for pair in set().union(*rows)
        }
        return tuple([tuple([made[pair] for pair in row]) for row in rows])
    return tuple([tuple([GaussianScalar(re, im, mode) for re, im in row]) for row in rows])


def _check_hermitian(a, mode):
    """Raise InvariantError unless the pair matrix a (of _cleared) has a
    zero diagonal and a(i, j) = conj(a(j, i)), going through i and, after
    the diagonal entry at i, every j > i. Exact pairs compare literally.
    An approx diagonal entry passes when each component is negligible next
    to 1, as GaussianScalar.is_zero has it; an approx pair of conjugates by
    the rule of _pairs_match, relative to their largest component, since
    two products of large labels round apart by more than eps. A = D * M
    passes exactly when M does. The literal tests spare valid exact input
    every call."""
    n = len(a)
    for i in range(n):
        row = a[i]
        re, im = row[i]
        if (re or im) and not (negligible(re, 0, mode) and negligible(im, 0, mode)):
            raise InvariantError(f"diagonal entry at {i} must be zero")
        for j in range(i + 1, n):
            re, im = row[j]
            cre, cim = a[j][i]
            if (re != cre or im != -cim) and not _pairs_match((re, im), (cre, -cim), mode):
                raise InvariantError(
                    f"labels at ({i},{j}) and ({j},{i}) are not conjugate"
                )


def _descaled(value, d, p):
    """value / D^p, exact, for a value of degree p in the entries of the
    A = D * M of _label_matrix, such as a minor of order p: the value for
    M. Approx values (d None) pass through."""
    return value if d is None else ratio(value, d**p)


def pair_product(a, b, c):
    """Components of a * b * conj(c) for (re, im) pairs a, b, c, formed in
    the order of GaussianScalar arithmetic, so float pairs give the same
    floats as (a * b * c.conj()) on scalars."""
    ar, ai = a
    br, bi = b
    cr, ci = c
    re = ar * br - ai * bi
    im = ar * bi + ai * br
    return re * cr + im * ci, im * cr - re * ci


def _phase_products(a, w, rest):
    """The phase products a(w, u) a(u, v) conj(a(w, v)) of the pair matrix
    a at base vertex w, for each pair (u, v) of rest with u before v, in
    combinations(rest, 2) order, as (re, im) pairs (see pair_product). A
    selector twist d multiplies each by |d(w)|^2 |d(u)|^2 |d(v)|^2, so
    normalize_at, are_equivalent, the canonical reduction and the gauge
    class memo of the enumeration all read a structure's class from them.
    Approx products are not checked to be finite here."""
    row = a[w]
    return [pair_product(row[u], a[u][v], row[v]) for u, v in combinations(rest, 2)]


def constant_structure(n, value):
    """Structure whose every off-diagonal label is the real scalar `value`."""
    if not isinstance(value, GaussianScalar):
        raise InputError("constant label must be a GaussianScalar")
    if not value.is_real():
        raise InvariantError("a constant structure needs a real label")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InputError(f"a structure needs at least one vertex, got {n!r}")
    zero = GaussianScalar.zero(value.mode)
    rows = [
        [zero if i == j else value for j in range(n)]
        for i in range(n)
    ]
    return HermitianStructure(rows)


class Tournament:
    """Complete asymmetric dominance relation on vertices 0..n-1.

    Rows are stored as bitmasks: bit j of row i is set when i beats j.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n, rows):
        _check_order(n)
        rows = _tuple_of(rows, "tournament rows")
        for r in rows:
            if not isinstance(r, int) or isinstance(r, bool):
                raise InputError(f"tournament rows must be int bitmasks, got {r!r}")
        if len(rows) != n:
            raise InputError(f"expected {n} rows, got {len(rows)}")
        full = (1 << n) - 1
        for i in range(n):
            if rows[i] & ~full:
                raise InputError(f"row {i} has bits outside 0..{n - 1}")
            if rows[i] >> i & 1:
                raise InvariantError(f"vertex {i} cannot dominate itself")
        for i in range(n):
            for j in range(i + 1, n):
                fwd = rows[i] >> j & 1
                back = rows[j] >> i & 1
                if fwd == back:
                    raise InvariantError(
                        f"pair ({i},{j}) must be dominated in exactly one direction"
                    )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Tournament is immutable")

    @classmethod
    def from_matrix(cls, matrix):
        """Build from a 0/1 dominance matrix (list of rows)."""
        matrix = [_tuple_of(row, "a dominance row") for row in _tuple_of(matrix, "dominance rows")]
        n = len(matrix)
        rows = []
        for i, row in enumerate(matrix):
            if len(row) != n:
                raise InputError(f"dominance matrix must be {n}x{n}")
            mask = 0
            for j, cell in enumerate(row):
                if not isinstance(cell, int) or isinstance(cell, bool) or cell not in (0, 1):
                    raise InputError(f"dominance entries are 0 or 1, got {cell!r}")
                if cell:
                    mask |= 1 << j
            rows.append(mask)
        return cls(n, rows)

    @classmethod
    def from_pair_bits(cls, n, code):
        """Decode an integer whose bits orient each pair i < j in order
        (0,1), (0,2), (1,2), (0,3), ... (colex over pairs). Bit set means
        i beats j. Enumerating code over range(2^(n(n-1)/2)) walks every
        labeled tournament exactly once.
        """
        _check_order(n)
        pairs = n * (n - 1) // 2
        bad = not isinstance(code, int) or isinstance(code, bool)
        if bad or code < 0 or code.bit_length() > pairs:
            raise InputError(f"pair code must be an int in 0..2^{pairs} - 1, got {code!r}")
        rows = [0] * n
        bit = 0
        for j in range(n):
            for i in range(j):
                if code >> bit & 1:
                    rows[i] |= 1 << j
                else:
                    rows[j] |= 1 << i
                bit += 1
        return cls(n, rows)

    def dominates(self, i, j):
        _check_vertex(self.n, i)
        _check_vertex(self.n, j)
        return bool(self.rows[i] >> j & 1)

    def out_degree(self, i):
        _check_vertex(self.n, i)
        return self.rows[i].bit_count()

    def in_mask(self, i):
        """Bitmask of the vertices that beat i: the complement of row i
        without i itself, since the constructor checks that every pair is
        oriented exactly one way."""
        _check_vertex(self.n, i)
        return ((1 << self.n) - 1) & ~self.rows[i] & ~(1 << i)

    def matrix(self):
        return [
            [self.rows[i] >> j & 1 for j in range(self.n)]
            for i in range(self.n)
        ]

    def arcs(self):
        for i in range(self.n):
            for j in range(self.n):
                if self.rows[i] >> j & 1:
                    yield i, j

    def subtournament(self, vertices):
        vs = _sorted_vertices(self.n, vertices, "subtournament")
        rows = []
        for a in vs:
            mask = 0
            for k, b in enumerate(vs):
                if a != b and self.rows[a] >> b & 1:
                    mask |= 1 << k
            rows.append(mask)
        return Tournament(len(vs), rows)

    def reverse(self):
        return Tournament(
            self.n,
            [self.in_mask(i) for i in range(self.n)],
        )

    def __eq__(self, other):
        if not isinstance(other, Tournament):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"Tournament(n={self.n}, rows={self.rows!r})"


def transitive_tournament(n):
    """The order 0 -> 1 -> ... -> n-1 (smaller index beats larger)."""
    _check_order(n)
    full = (1 << n) - 1
    return Tournament(n, [(full >> (i + 1)) << (i + 1) for i in range(n)])


def is_transitive(t):
    """True when the dominance relation is a linear order.

    A tournament is transitive exactly when its out-degrees are pairwise
    distinct, in which case they are a permutation of 0..n-1.
    """
    _require(t, Tournament, "is_transitive")
    degrees = [t.out_degree(i) for i in range(t.n)]
    return len(set(degrees)) == t.n


def first_three_cycle(t):
    """Lexicographically least (a, b, c) with a -> b -> c -> a, or None."""
    _require(t, Tournament, "first_three_cycle")
    for a in range(t.n):
        for b in range(t.n):
            if not t.rows[a] >> b & 1:
                continue
            targets = t.rows[b] & t.in_mask(a)
            if targets:
                c = (targets & -targets).bit_length() - 1
                return (a, b, c)
    return None


def descending_score_order(t):
    """Vertices sorted by out-degree descending, index ascending on ties."""
    _require(t, Tournament, "descending_score_order")
    return tuple(sorted(range(t.n), key=lambda v: (-t.out_degree(v), v)))


class Selector:
    """Vertex-indexed nonzero scalars of one common modulus, with an optional
    positive real scale factor carried as its square.

    The mathematical selector is sqrt(scale_sq) * values[x]. The square root
    never needs to be materialized: the action on a structure multiplies two
    selector entries, so only scale_sq itself enters the arithmetic. This is
    what lets normalization stay exact when the common modulus is irrational.

    A selector stores its values only as (re, im) pairs (S, R), cleared as
    a structure clears its labels (_cleared): Gaussian integers S over the
    lcm R of the value denominators in exact mode, the float components
    with R None in approx mode. _selector_assembled checks the values on
    those pairs, and the action reads them. Selectors the library builds
    itself arrive as pairs through _selector_from_pairs and end in the
    same check.

    values, the GaussianScalars, is a view of the pairs (see _scalars_of),
    built on its first read and kept, whichever route built the selector.
    Exact equality and hashing read the values and scale_sq. Approx
    selectors compare their pairs by the rule of _pairs_match and scale_sq
    relative to the larger one, as approx structures compare their labels,
    and do not hash.
    """

    __slots__ = ("scale_sq", "mode", "_pairs", "_values")

    def __init__(self, values, scale_sq=1):
        values = _tuple_of(values, "selector values")
        if not values:
            raise InputError("a selector needs at least one value")
        mode = _one_mode(values, "selector value", "selector values mix modes")
        (pairs,), r = _cleared((values,), mode)
        _selector_assembled(self, pairs, r, mode, scale_sq)

    def __setattr__(self, name, value):
        raise AttributeError("Selector is immutable")

    @property
    def values(self):
        """The values as a tuple of GaussianScalars."""
        if self._values is None:
            pairs, r = self._pairs
            (values,) = _scalars_of((pairs,), r, self.mode)
            object.__setattr__(self, "_values", values)
        return self._values

    @classmethod
    def ones(cls, n, mode=EXACT):
        return cls.constant(n, GaussianScalar.one(mode))

    @classmethod
    def constant(cls, n, value, scale_sq=1):
        if not isinstance(n, int) or isinstance(n, bool):
            raise InputError(f"a selector size must be an int, got {n!r}")
        return cls([value] * n, scale_sq)

    @property
    def n(self):
        return len(self._pairs[0])

    def modulus_squared(self):
        """|delta|^2, the square of the common modulus of the selector."""
        return self.values[0].modulus_squared() * self.scale_sq

    def inverse(self):
        return Selector([v.inverse() for v in self.values], 1 / self.scale_sq)

    def pointwise_product(self, other):
        if not isinstance(other, Selector):
            raise InputError("can only compose with another Selector")
        if other.mode != self.mode:
            raise ModeMixError("cannot compose selectors of different modes")
        if other.n != self.n:
            raise InputError("selector sizes differ")
        return Selector(
            [a * b for a, b in zip(self.values, other.values)],
            self.scale_sq * other.scale_sq,
        )

    def __eq__(self, other):
        if not isinstance(other, Selector):
            return NotImplemented
        if other.mode != self.mode:
            raise ModeMixError("cannot compare selectors of different modes")
        if other.n != self.n:
            return False
        s, t = self.scale_sq, other.scale_sq
        if self.mode == EXACT:
            return s == t and self.values == other.values
        # the smaller over the larger, so that the test is symmetric and the
        # ratio cannot overflow
        return (s == t or close(min(s, t) / max(s, t), 1, APPROX)) and all(
            _pairs_match(p, q, APPROX) for p, q in zip(self._pairs[0], other._pairs[0])
        )

    def __hash__(self):
        if self.mode == APPROX:
            raise TypeError("approx selectors compare within eps and cannot hash")
        return hash((self.values, self.scale_sq))

    def __repr__(self):
        return f"Selector(n={self.n}, mode={self.mode!r}, scale_sq={self.scale_sq})"


def _selector_assembled(self, pairs, r, mode, scale_sq):
    """self, a new Selector with the value pairs over r (pairs as they are
    in approx mode) and scale_sq as real makes it: the values are checked
    on their pairs and every slot is set, the values view still unbuilt.
    Both constructors end here. A value must be nonzero by the rule of
    GaussianScalar.is_zero, scale_sq positive, and the norms re^2 + im^2
    equal, within negligible next to the first; exact mode tests the int
    norms literally. A failed check is an InvariantError; an approx
    scale_sq that is not finite is an InputError, tested before its sign."""
    norms = [re * re + im * im for re, im in pairs]
    if mode == EXACT:
        zero = 0 in norms
    else:
        zero = any(negligible(re, 0, mode) and negligible(im, 0, mode) for re, im in pairs)
    if zero:
        raise InvariantError("selector values must be nonzero")
    scale_sq = real(scale_sq, mode)
    if mode != EXACT and not math.isfinite(scale_sq):
        raise InputError(f"approx scale_sq must be finite, got {scale_sq!r}")
    if not scale_sq > 0:
        raise InvariantError("scale_sq must be positive")
    msq = norms[0]
    # the count spares equal exact norms every call
    if norms.count(msq) != len(norms) and not all(
        other == msq or negligible(other - msq, msq, mode) for other in norms
    ):
        raise InvariantError("selector values must share one modulus")
    object.__setattr__(self, "scale_sq", scale_sq)
    object.__setattr__(self, "mode", mode)
    object.__setattr__(self, "_pairs", (pairs, r))
    object.__setattr__(self, "_values", None)
    return self


def _selector_from_pairs(pairs, q, mode, scale_sq=1):
    """The Selector with values pairs / q and scale_sq, for selector values
    the library computed: int pairs over an int q > 0 in exact mode, float
    pairs with q None in approx mode. It keeps those pairs as its (S, R),
    builds its values from them on first read, and ends in
    _selector_assembled, as Selector does. Approx pairs arrive finite, as
    _from_pairs says. A failed check is a broken invariant in exact mode
    and _too_close input in approx mode."""
    try:
        return _selector_assembled(object.__new__(Selector), tuple(pairs), q, mode, scale_sq)
    except InvariantError as exc:
        raise _failed(mode, str(exc), _too_close("the selector values differ in modulus")) from None


def substructure(g, vertices):
    """Restriction of g to the given vertices, sorted ascending: the pair
    matrix of g, sliced."""
    _require(g, HermitianStructure, "substructure")
    vs = _sorted_vertices(g.n, vertices, "substructure")
    a, d = _label_matrix(g)
    return _from_pairs(tuple(tuple(a[x][y] for y in vs) for x in vs), d, g.mode)


def apply_selector(g, d):
    """g^d with labels scale_sq * d(x) * g(x, y) * conj(d(y)), built by
    _from_pairs from the pair matrix of _acted and checked like any
    structure."""
    if not isinstance(g, HermitianStructure) or not isinstance(d, Selector):
        raise InputError("apply_selector takes a HermitianStructure and a Selector")
    if d.mode != g.mode:
        raise ModeMixError("structure and selector modes differ")
    if d.n != g.n:
        raise InputError(f"selector covers {d.n} vertices, structure has {g.n}")
    return _from_pairs(*_acted(g, d._pairs, d.scale_sq), g.mode)


def _acted(g, pairs, scale_sq):
    """(rows, den), the pair matrix of g^d over its denominator, for the
    selector d with values pairs = (S, R) as Selector keeps them and
    scale_sq.

    It reads the labels as Gaussian integers A over D (_label_matrix) and
    the values as Gaussian integers S over R in exact mode, where each
    entry is the integer product S(x) A(x, y) conj(S(y)) times the
    numerator of scale_sq, over R^2 D times its denominator. Approx mode
    runs the same loop on the float components and multiplies by scale_sq;
    its operations are those of GaussianScalar arithmetic, in the same
    order, so the floats agree bit for bit, and a product that overflows
    floats is an InputError. The diagonal is an explicit zero pair.
    """
    mode = g.mode
    labels, den = _label_matrix(g)
    values, r = pairs
    num, zero = scale_sq, (0.0, 0.0)
    if mode == EXACT:
        num, den, zero = num.numerator, den * r * r * num.denominator, (0, 0)
    rows = []
    for x, row in enumerate(labels):
        acted = list(map(pair_product, repeat(values[x]), row, values))
        if num != 1:  # a factor of 1 leaves ints and floats as they are
            acted = [(re * num, im * num) for re, im in acted]
        acted[x] = zero
        rows.append(tuple(acted))
    if mode != EXACT:
        for row in rows:
            for pair in row:
                _finite(pair, mode, "selector products")
    return tuple(rows), den


def _check_action(g, pairs, scale_sq, target, failed, misses):
    """Raise unless the selector with values pairs = (S, R) and scale_sq,
    as Selector keeps them, maps g onto target: re-applying a selector the
    library built is the check on the arithmetic that built it. The
    selector need not be built yet. It runs the arithmetic of
    apply_selector (_acted) and compares the result with the pairs of
    target's _label_matrix. In exact mode target's (A, E) is canonical, so
    the acted pairs over den of a selector that maps g onto target are A
    times den / E, an int: the passing path scales A once and compares
    literally. In approx mode the float pairs match literally or by the
    rule of _pairs_match at every ordered pair x != y. A miss is a broken
    invariant in exact mode and _too_close input in approx mode; failed
    and misses word the two messages and may name the first pair that
    misses as {x}, {y}, which the pair-by-pair loop finds (cross-multiplied
    in exact mode when E does not divide den).
    """
    mode = g.mode
    rows, den = _acted(g, pairs, scale_sq)
    b, e = _label_matrix(target)
    if mode == EXACT and den != e and den % e == 0:
        k = den // e
        b, e = tuple([tuple([(re * k, im * k) for re, im in row]) for row in b]), den
    if den == e and rows == b:
        return
    for x, (row, wanted) in enumerate(zip(rows, b)):
        for y, (got, want) in enumerate(zip(row, wanted)):
            if den == e:  # so always in approx mode, where both are None
                matched = got == want or _pairs_match(got, want, mode)
            else:
                matched = got[0] * e == want[0] * den and got[1] * e == want[1] * den
            if x != y and not matched:
                raise _failed(mode, failed.format(x=x, y=y), _too_close(misses.format(x=x, y=y)))


def c_representation(t, c):
    """Structure of a tournament: label c on arcs, conj(c) against them.

    c must have modulus 1. A real c (then c is 1 or -1) gives the constant
    structure; that degenerate case is accepted but flagged with
    ConstantRepresentationWarning since it forgets the tournament.
    """
    _require(t, Tournament, "c_representation")
    if not isinstance(c, GaussianScalar):
        raise InputError("label must be a GaussianScalar")
    if not negligible(c.modulus_squared() - 1, 0, c.mode):
        raise InputError("representation label must have modulus 1")
    if c.is_real():
        warnings.warn(
            "real unit label: the representation is a constant structure "
            "and the tournament cannot be recovered from it",
            ConstantRepresentationWarning,
            stacklevel=2,
        )
    # every label is the pair of zero, c or conj(c), with c cleared once
    (((re, im),),), d = _cleared(((c,),), c.mode)
    shared = ((0, 0) if c.mode == EXACT else (0.0, 0.0), (re, im), (re, -im))
    matrix = tuple(
        tuple(shared[0 if x == y else 1 if t.rows[x] >> y & 1 else 2] for y in range(t.n))
        for x in range(t.n)
    )
    return _from_pairs(matrix, d, c.mode)


def i_representation(t, mode=EXACT):
    """c_representation with the imaginary unit."""
    return c_representation(t, GaussianScalar.i_unit(mode))


def _finite(pair, mode, what="phase products"):
    """pair, an approx value formed from labels, such as a phase product or
    a product of two, checked to be finite: labels that fit floats can
    still overflow there. what names the values in the InputError."""
    re, im = pair
    if mode != EXACT and not (math.isfinite(re) and math.isfinite(im)):
        raise InputError(f"approx labels too large: {what} overflow floats")
    return pair


def normalize_at(g, w):
    """The unique structure equivalent to g whose labels all have modulus 1
    and whose row at w is all ones, together with the witnessing selector.

    Needs labels of one common nonzero modulus m. The normalized labels are
    g~(u, v) = g(w, u) * g(u, v) * conj(g(w, v)) / m^3 away from w. In exact
    mode m must be rational (m^2 a perfect square), otherwise the normalized
    labels themselves are irrational and ExactnessError is raised; the
    equivalence test sidesteps this by comparing phases only.

    The selector is returned in split form: unit values with scale_sq = 1/m,
    so its action on g is exact even though |delta| = 1/sqrt(m) may not be.

    Both are built from the pairs of _label_matrix, as the canonical
    reduction builds its own: the normal form by _from_pairs from the phase
    products of A, and the selector by _selector_from_pairs from the row
    A(w, .), which is D * m times its values. In exact mode D * m is an
    int, the root of the common modulus squared of A, and both are exact
    over a power of it; approx mode scales the floats by 1/m and 1/m^3.
    The selector is then re-applied to g by _check_action, the check the
    canonical reduction and are_equivalent share, against the normal form.
    """
    _require(g, HermitianStructure, "normalize_at")
    _check_vertex(g.n, w)
    if g.n < 2:
        raise InputError("normalization needs at least two vertices")
    mode = g.mode
    a, d = _label_matrix(g)
    msq = common_modulus_squared_of_pairs(a, mode)
    if mode == EXACT:
        lift = math.isqrt(msq)
        if lift * lift != msq:
            raise ExactnessError(
                f"common modulus squared {_descaled(msq, d, 2)} is not a perfect square; "
                "the normalized labels are not Gaussian rationals"
            )
        s = s3 = 1
        zero, q, q3, scale_sq = 0, lift, lift**3, ratio(d, lift)
    else:
        m = math.sqrt(msq)
        lift, s, s3, scale_sq = 1.0, 1 / m, 1 / (msq * m), 1 / m
        zero, q, q3 = 0.0, None, None
    # selector pairs are lift times their values, label pairs lift^3 times;
    # others before and after its reversal give the pairs above and below
    # the diagonal
    one, row = (lift**3, zero), a[w]
    rows = [[(zero, zero) if u == v else one for v in range(g.n)] for u in range(g.n)]
    others = [x for x in range(g.n) if x != w]
    for rest in (others, others[::-1]):
        for (u, v), pair in zip(combinations(rest, 2), _phase_products(a, w, rest)):
            re, im = _finite(pair, mode)
            rows[u][v] = (re * s3, im * s3)
    normalized = _from_pairs(tuple(map(tuple, rows)), q3, mode)
    values = [(lift, zero) if x == w else (re * s, im * s) for x, (re, im) in enumerate(row)]
    selector = _selector_from_pairs(values, q, mode, scale_sq)
    failed = "normalizing selector failed to reproduce the normal form"
    misses = "the normalizing selector misses the normal form"
    _check_action(g, selector._pairs, selector.scale_sq, normalized, failed, misses)
    return normalized, selector


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of are_equivalent.

    witness maps the first structure onto the second when equivalence holds
    and an exact selector exists; it is in split form, as normalize_at
    returns its own, so only |delta|^2 needs to be rational. note explains
    a missing witness: the connecting |delta|^2 can be irrational even
    between exact structures, for example labels 1 versus 1+i, where
    |delta|^4 = 2.
    """

    equivalent: bool
    reason: Optional[str] = None
    witness: Optional[Selector] = None
    note: Optional[str] = None


def are_equivalent(g, h):
    """Decide whether some selector maps g onto h.

    Both structures must be on the same vertex count and mode. Structures
    without a common nonzero label modulus are reported inequivalent with a
    reason (they cannot be normalized). Otherwise g ~ h exactly when their
    normalized forms at vertex 0 agree, which is compared through the phase
    products g(0,u) g(u,v) conj(g(0,v)) so no square roots are needed.

    The witness is in split form, as normalize_at's: d(0) = 1 and
    d(v) = conj(h(0,v)) g(0,v) / (s0 m_g^2) for v >= 1, all of modulus 1,
    with scale_sq = s0 = m_h / m_g for the common label moduli m_g and m_h.
    So an exact witness exists exactly when s0 is rational; labels 1 versus
    1+i, where s0^2 = 2, get a note instead. It is built from the pairs of
    _label_matrix, over one int denominator in exact mode, and re-applied
    to g by _check_action against h before it is returned.
    """
    if not isinstance(g, HermitianStructure) or not isinstance(h, HermitianStructure):
        raise InputError("are_equivalent takes two HermitianStructures")
    if g.mode != h.mode:
        raise ModeMixError("cannot compare structures of different modes")
    if g.n != h.n:
        raise InputError("structures must have the same number of vertices")
    if g.n == 1:
        return EquivalenceReport(True, witness=Selector.ones(1, g.mode))
    mode = g.mode
    a, d = _label_matrix(g)
    b, e = _label_matrix(h)
    msq = []
    for side, pairs in (("left", a), ("right", b)):
        try:
            msq.append(common_modulus_squared_of_pairs(pairs, mode))
        except NotTwoMonomorphicError as exc:
            return EquivalenceReport(False, reason=f"{side} structure: {exc}")
    msq_a, msq_b = msq
    # exact mode drops the positive factors D^-3 of _label_matrix, which
    # change neither the sign nor the realness of p * conj(q); approx mode
    # divides p * conj(q) by m_g^3 m_h^3 once it is formed and found
    # finite, so its phase is tested relative to its size. pair_product
    # forms p * conj(q) with (1, 0) as its middle factor
    unit = 1 if mode == EXACT else 1 / (msq_a * msq_b * math.sqrt(msq_a * msq_b))
    rest = range(1, g.n)
    phases = zip(combinations(rest, 2), _phase_products(a, 0, rest), _phase_products(b, 0, rest))
    for (u, v), p, q in phases:
        re, im = _finite(pair_product(_finite(p, mode), (1, 0), _finite(q, mode)), mode)
        re, im = re * unit, im * unit
        if not (negligible(im, re, mode) and re > 0):
            return EquivalenceReport(False, reason=f"normalized forms differ at pair ({u},{v})")
    # Phases agree, so the structures are equivalent over the complex
    # numbers; the witness is exact when s0 is.
    if mode == EXACT:
        # m_h^2 / m_g^2, with msq_a = D^2 m_g^2 and msq_b = E^2 m_h^2
        moduli = ratio(msq_b * d * d, msq_a * e * e)
        s0 = rational_sqrt(moduli)
        if s0 is None:
            note = f"equivalent, but the connecting selector needs |delta|^2 = sqrt({moduli})"
            return EquivalenceReport(True, note=f"{note} which is irrational")
        # d(v) = A(0,v) conj(B(0,v)) D / (E s0 msq_a), over one int den
        num, den = d * s0.denominator, e * s0.numerator * msq_a
        one = (den, 0)
    else:
        s0 = math.sqrt(msq_b / msq_a)
        num, den, one = 1 / (s0 * msq_a), None, (1.0, 0.0)
    values = [one]
    for v in range(1, g.n):
        re, im = pair_product(a[0][v], (1, 0), b[0][v])
        values.append((re * num, im * num))
    witness = _selector_from_pairs(values, den, mode, s0)
    failed = "equivalence witness failed to reproduce the target"
    misses = "the equivalence witness misses the target"
    _check_action(g, witness._pairs, witness.scale_sq, h, failed, misses)
    return EquivalenceReport(True, witness=witness)
