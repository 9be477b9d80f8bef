"""Characteristic polynomials of Hermitian structures, exactly.

The label matrix of a Hermitian structure has a monic characteristic
polynomial P(x) = det(xI - M) with real coefficients. It is computed by one
Faddeev-LeVerrier recurrence on a matrix of (re, im) component pairs, the
same loop in both arithmetic modes. In exact mode the pairs are integers:
with D the lcm of every label component denominator, A = D * M is a
Gaussian-integer matrix, its recurrence divides only exactly, and
P_M(x) = D^-n * P_A(D * x). Every power the recurrence forms is a real
polynomial in the Hermitian A and so Hermitian itself, and exact mode
computes only its upper triangle and mirrors the rest as conjugates. In
approx mode the pairs are floats, every entry of each power is formed, and
each coefficient is checked and formed within the tolerance of scalars.
Enumerations slice principal submatrices of one such matrix instead of
building substructures; in exact mode those of order at most three are
read from their labels in closed form (_closed_form). Determinants come
from an independent elimination, fraction-free Bareiss elimination, one
loop in both modes: with the first nonzero pivot over the Gaussian
integers in exact mode (det M = det A / D^n), where each division by the
previous pivot is checked to be exact, and with the largest-norm pivot on
complex floats in approx mode. So the identity P(0) = (-1)^n det M is a
genuine cross-check rather than a tautology.

In exact mode the same recurrence pass can also accumulate the adjugates
adj(x_j I - A) at integer points x_j above the spectrum of A. They are
Hermitian, so only their upper triangles are accumulated and stored, row
by row (_upper gives the position of an entry). From them
_first_deletion_miss checks principal submatrices of order n - 1, n - 2 or
n - 3 against a target polynomial through Jacobi's complementary minors,
with the recurrence as its cross-check; large-k enumeration and the
deletion spectra both use it.
"""

from __future__ import annotations

import math

from .combinat import colex_subsets
from .core import HermitianStructure, _descaled, _finite, _label_matrix, _require, _tuple_of, pair_product
from .errors import InputError, InvariantError, ModeMixError
from .scalars import APPROX, EXACT, GaussianScalar, _failed, close, negligible, real


class RealPolynomial:
    """Real-coefficient polynomial, coefficients stored ascending."""

    __slots__ = ("coefficients", "mode")

    def __init__(self, coefficients, mode):
        if mode not in (EXACT, APPROX):
            raise InputError(f"unknown polynomial mode {mode!r}")
        coeffs = [real(c, mode) for c in _tuple_of(coefficients, "polynomial coefficients")]
        if not coeffs:
            raise InputError("a polynomial needs at least one coefficient")
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError("RealPolynomial is immutable")

    @property
    def degree(self):
        return len(self.coefficients) - 1

    def is_monic(self):
        return negligible(self.coefficients[-1] - 1, 0, self.mode)

    def evaluate(self, x):
        x = real(x, self.mode)
        acc = real(0, self.mode)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def multiply(self, other):
        self._require_same_mode(other)
        a, b = self.coefficients, other.coefficients
        out = [real(0, self.mode)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return RealPolynomial(out, self.mode)

    def power(self, k):
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise InputError(f"polynomial power must be a nonnegative int, got {k!r}")
        result = RealPolynomial([1], self.mode)
        base = self
        while k:
            if k & 1:
                result = result.multiply(base)
            base = base.multiply(base)
            k >>= 1
        return result

    def scaled(self, s):
        """s^n * P(x / s) for a positive real scale s: the characteristic
        polynomial transform under a selector of modulus squared s."""
        n = self.degree
        s = real(s, self.mode)
        if not s > 0:
            raise InputError("scale must be positive")
        try:
            coefficients = [c * s ** (n - j) for j, c in enumerate(self.coefficients)]
        except OverflowError:
            # float ** int raises where float * float gives inf
            coefficients = [math.inf]
        if self.mode == APPROX and not all(map(math.isfinite, coefficients)):
            raise InputError("approx scale too large: the scaled coefficients overflow floats")
        return RealPolynomial(coefficients, self.mode)

    def _require_same_mode(self, other):
        if not isinstance(other, RealPolynomial):
            raise InputError(f"expected a RealPolynomial, got {other!r}")
        if other.mode != self.mode:
            raise ModeMixError("cannot combine polynomials of different modes")

    def __eq__(self, other):
        if not isinstance(other, RealPolynomial):
            return NotImplemented
        self._require_same_mode(other)
        a, b = self.coefficients, other.coefficients
        return len(a) == len(b) and all(close(x, y, self.mode) for x, y in zip(a, b))

    def __hash__(self):
        if self.mode == APPROX:
            raise TypeError("approx polynomials compare within eps and cannot hash")
        return hash(self.coefficients)

    def to_display(self):
        """Compact human form in descending powers, e.g. 'x^5-10x^3+21x'."""
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coefficients[k]
            if c == 0:
                continue
            negative = c < 0
            body = str(abs(c))
            if k > 0 and body == "1":
                body = ""
            if k == 1:
                body += "x"
            elif k > 1:
                body += f"x^{k}"
            sign = "-" if negative else ("+" if terms else "")
            terms.append(sign + body)
        return "".join(terms) if terms else "0"

    def coefficient_strings(self):
        """Ascending coefficient literals for reports, exact and replayable:
        str of a float is its repr."""
        return [str(c) for c in self.coefficients]

    def __repr__(self):
        return f"RealPolynomial({self.to_display()!r}, mode={self.mode!r})"

    def __str__(self):
        return self.to_display()


def poly_x_squared_minus(constant, mode=EXACT):
    """x^2 - constant, a convenience for spectral closed forms."""
    return RealPolynomial([-real(constant, mode), 0, 1], mode)


def _principal_submatrix(m, vertices):
    return [[m[a][b] for b in vertices] for a in vertices]


def _pair_dot(row, col):
    sre = 0
    sim = 0
    for (ar, ai), (br, bi) in zip(row, col):
        sre += ar * br - ai * bi
        sim += ar * bi + ai * br
    return sre, sim


def _recurrence(a, mode, points=()):
    """Descending coefficients 1, c_1, ..., c_n of det(xI - A) by one
    Faddeev-LeVerrier pass: M_1 = A, c_k = -trace(M_k) / k,
    N_k = M_k + c_k I, M_{k+1} = A N_k.

    A must be Hermitian: every structure is checked to be, enumerations
    pass its principal submatrices, and the deletion spectra pass i * S for
    a skew S. Then each M_k is a real polynomial in A and Hermitian too,
    so exact mode computes only the entries on and above the diagonal of
    M_(k+1) and fills each entry below it with the conjugate of its mirror
    image. The diagonal is always computed, so the checks below test
    computed values. Approx mode forms every entry, keeping its rounding.

    Exact mode: a Hermitian Gaussian-integer matrix has an integer
    characteristic polynomial, so every trace is real and every division
    by k is exact; both are checked. Approx mode: c_k = -trace / k, and a
    trace that overflowed floats or is not real within eps is an
    InputError, since rounding in the powers of valid Hermitian input can
    outgrow a real part that cancels. The last product is only needed for
    its trace, so only its diagonal is formed, from full dot products.

    For each integer x in points (exact mode) the same pass also returns
    adj(xI - A) = x^(n-1) I + x^(n-2) N_1 + ... + N_(n-1), accumulated by
    one Horner step per N_k. Every N_k is Hermitian, and so is each
    adjugate, so only the entries (i, j) with i <= j are accumulated: each
    adjugate is a pair of flat lists (re, im) of the upper triangle, row by
    row, with (i, j) at _upper(n, i, j). The entry (j, i) is the conjugate
    of (i, j).
    """
    n = len(a)
    descending = [1]
    adjugates = []
    if points:
        diagonal_at = [_upper(n, i, i) for i in range(n)]
        # each Horner step below builds new lists, so the points can share I
        identity = [0] * (n * (n + 1) // 2)
        for i in diagonal_at:
            identity[i] = 1
        adjugates = [(identity, [0] * len(identity)) for _ in points]
    mk = a
    diagonal = [row[i] for i, row in enumerate(a)]
    for k in range(1, n + 1):
        tr_re = 0
        tr_im = 0
        for re, im in diagonal:
            tr_re += re
            tr_im += im
        if mode == APPROX and not (math.isfinite(tr_re) and math.isfinite(tr_im)):
            raise InputError(
                "approx labels too large: powers of the label matrix overflow floats"
            )
        # the literal test spares the exact path a call per coefficient
        if tr_im != 0 and not negligible(tr_im, tr_re, mode):
            raise _failed(
                mode,
                "trace of a Hermitian power must be real",
                InputError(
                    "approx labels lost precision: a trace of a power of the "
                    "label matrix is not real within eps; use exact labels"
                ),
            )
        if mode == EXACT:
            ck, r = divmod(-tr_re, k)
            if r != 0:
                raise InvariantError("integer characteristic coefficient did not divide")
        else:
            ck = -tr_re / k
        descending.append(ck)
        if k == n:
            break
        if points:
            upper = [pair for i, row in enumerate(mk) for pair in row[i:]]
            n_re = [re for re, _ in upper]
            n_im = [im for _, im in upper]
            for i in diagonal_at:
                n_re[i] += ck
            adjugates = [
                (
                    [x * r + c for r, c in zip(r_re, n_re)],
                    [x * r + c for r, c in zip(r_im, n_im)],
                )
                for x, (r_re, r_im) in zip(points, adjugates)
            ]
        # columns of M_k + c_k I
        cols = [list(col) for col in zip(*mk)]
        for i, col in enumerate(cols):
            re, im = col[i]
            col[i] = (re + ck, im)
        if k + 1 < n:
            mk = []
            for i, row in enumerate(a):
                start = 0 if mode == APPROX else i
                mk.append(
                    [(above[i][0], -above[i][1]) for above in mk[:start]]
                    + [_pair_dot(row, col) for col in cols[start:]]
                )
            diagonal = [row[i] for i, row in enumerate(mk)]
        else:
            diagonal = [_pair_dot(row, col) for row, col in zip(a, cols)]
    return descending, adjugates


def _upper(n, i, j):
    """Position of entry (i, j), i <= j, of an n x n matrix in the flat list
    of its upper triangle, row by row: row i starts after the n, n - 1, ...,
    n - i + 1 entries of the rows above it."""
    return i * n - i * (i - 1) // 2 + j - i


def _polynomial(descending, d):
    """P_M as a RealPolynomial from the descending coefficients of P_A that
    _recurrence returns for a matrix (A, D) in _label_matrix form: in exact
    mode coefficient j is divided by D^j, since P_M(x) = D^-n P_A(D x)."""
    coefficients = [_descaled(c, d, j) for j, c in enumerate(descending)]
    return RealPolynomial(coefficients[::-1], APPROX if d is None else EXACT)


def _horner(descending, x):
    value = 0
    for c in descending:
        value = value * x + c
    return value


def _adjugates(a, count):
    """(P_A, points, P_A at the points, adjugates) for a Hermitian
    Gaussian-integer matrix A and `count` integer points x_j above
    1 + the largest row sum of |re| + |im|, which bounds every eigenvalue,
    so P_A(x_j) > 0 and xI - A is invertible there. The adjugates
    adj(x_j I - A) come out of the same recurrence pass as P_A."""
    bound = max(sum(abs(re) + abs(im) for re, im in row) for row in a)
    points = [bound + 1 + j for j in range(1, count + 1)]
    descending, adjugates = _recurrence(a, EXACT, points)
    values = [_horner(descending, x) for x in points]
    for x, value in zip(points, values):
        if value <= 0:
            raise InvariantError(
                f"characteristic polynomial is {value} at {x}, above the spectrum"
            )
    return RealPolynomial(descending[::-1], EXACT), points, values, adjugates


def _complementary_minors(adjugates, n, t, count):
    """det(adj(x_j I - A)[t]) at the first `count` points, for a set t of
    one to three indices. By Jacobi's complementary minor identity this is
    P_A(x_j)^(|t| - 1) * P_{A[S]}(x_j) for S the complement of t, so the
    characteristic polynomial of every principal submatrix of order n - |t|
    can be read off the adjugates at the points. The adjugates are
    Hermitian, which the closed forms of the minors use: they come in the
    upper-triangle layout of _recurrence, and t is sorted ascending, as
    colex_subsets gives it, so the entries (a, b) with a < b in t are the
    stored ones and the minors need no conjugate."""
    if len(t) == 1:
        i = _upper(n, t[0], t[0])
        return [re[i] for re, _ in adjugates[:count]]
    if len(t) == 2:
        a, b = t
        aa, bb, ab = _upper(n, a, a), _upper(n, b, b), _upper(n, a, b)
        return [
            re[aa] * re[bb] - re[ab] * re[ab] - im[ab] * im[ab]
            for re, im in adjugates[:count]
        ]
    a, b, c = t
    aa, bb, cc = _upper(n, a, a), _upper(n, b, b), _upper(n, c, c)
    ab, ac, bc = _upper(n, a, b), _upper(n, a, c), _upper(n, b, c)
    minors = []
    for re, im in adjugates[:count]:
        ea, eb, ec = re[aa], re[bb], re[cc]
        pr, pi = re[ab], im[ab]
        qr, qi = re[ac], im[ac]
        rr, ri = re[bc], im[bc]
        # det = abc + 2 Re(p r conj(q)) - a|r|^2 - b|q|^2 - c|p|^2
        sr = pr * rr - pi * ri
        si = pr * ri + pi * rr
        minors.append(
            ea * eb * ec
            + 2 * (sr * qr + si * qi)
            - ea * (rr * rr + ri * ri)
            - eb * (qr * qr + qi * qi)
            - ec * (pr * pr + pi * pi)
        )
    return minors


def _closed_form(m, subset):
    """Descending coefficients of P_A[S] for a subset S of one to three
    indices of a Hermitian zero-diagonal Gaussian-integer matrix A = m,
    read from its labels with no recurrence and no division: x for one
    index, x^2 - |a|^2 for two, and for S = (x, y, z), with a = A(x, y),
    b = A(y, z) and c = A(x, z), the order-3 identity of the source paper,
    P_A[S] = x^3 - (|a|^2 + |b|^2 + |c|^2) x - 2 Re(a b conj(c)),
    the expansion of the 3x3 Hermitian determinant that
    _complementary_minors also writes out."""
    if len(subset) == 1:
        return [1, 0]
    x, y = subset[0], subset[1]
    a = m[x][y]
    norms = a[0] * a[0] + a[1] * a[1]
    if len(subset) == 2:
        return [1, 0, -norms]
    z = subset[2]
    b, c = m[y][z], m[x][z]
    norms += b[0] * b[0] + b[1] * b[1] + c[0] * c[0] + c[1] * c[1]
    return [1, 0, -norms, -2 * pair_product(a, b, c)[0]]


def _first_deletion_miss(a, adjugates, deletions, descending):
    """The first of `deletions` whose principal submatrix of the Hermitian
    Gaussian-integer matrix A does not have the characteristic polynomial
    with the descending integer coefficients `descending`, as
    (its index, the descending coefficients it has), or None.

    adjugates is what _adjugates(a, count) returns, with count at least
    k = n - d, and deletions is a nonempty list of index sets of one size
    d, 1 <= d <= 3, each deleting the rows and columns of A outside a
    subset S of size k. By Jacobi's complementary minor identity (Horn &
    Johnson, Matrix Analysis, 0.8.4), for T the complement of S,
    det adj(xI - A)[T] = P_A(x)^(d-1) * P_{A[S]}(x), so each deletion costs
    one minor of order d per point (_complementary_minors) instead of a
    recurrence of order k. Its minors are compared with P_A(x_j)^(d-1)
    times the target at the first k points x_j: two monic polynomials of
    degree k that agree at k points are equal. A deletion whose minors
    differ is recomputed by the recurrence on A[S] alone, and that
    polynomial must differ from the target too, or the route is broken and
    InvariantError is raised; so wrong adjugates or wrong points that move
    the minors of a deletion with the target polynomial are caught there,
    and every reported polynomial comes from the recurrence."""
    _, points, values, adj = adjugates
    n = len(a)
    k = n - len(deletions[0])
    expected = [
        value ** (n - k - 1) * _horner(descending, x)
        for x, value in zip(points[:k], values)
    ]
    for index, t in enumerate(deletions):
        if _complementary_minors(adj, n, t, k) == expected:
            continue
        keep = [v for v in range(n) if v not in t]
        coefficients, _ = _recurrence(_principal_submatrix(a, keep), EXACT)
        if coefficients == descending:
            raise InvariantError(
                f"complementary minors of deletion {t} miss the target, "
                "but its characteristic polynomial does not"
            )
        return index, coefficients
    return None


def char_poly(g):
    """Monic characteristic polynomial of the label matrix of g.

    Faddeev-LeVerrier: M_1 = M, c_k = -trace(M_k)/k,
    M_{k+1} = M (M_k + c_k I), one recurrence on (re, im) pairs for both
    modes. Exact mode runs it on the Gaussian-integer matrix D * M, where
    every division is provably exact, and rescales; approx mode runs it on
    the float components of M.
    """
    _require(g, HermitianStructure, "char_poly")
    a, d = _label_matrix(g)
    return _polynomial(_recurrence(a, APPROX if d is None else EXACT)[0], d)


def _det(a, n, mode):
    """Determinant of a matrix of (re, im) pairs by fraction-free Bareiss
    elimination (Bareiss 1968, "Sylvester's identity and multistep
    integer-preserving Gaussian elimination"), one loop for both modes.
    Each step swaps in a row with a nonzero pivot: in exact mode the first
    one, and in approx mode the one of largest norm re * re + im * im, to
    keep the rounding small. After step k each remaining entry is a minor of
    order k + 2 of the row-permuted matrix, formed as
    (pivot * row[c] - row[k] * top[c]) / prev. Only that division depends
    on the mode: on Gaussian integers it is exact in Z[i], and exact mode
    checks that it is. Approx mode divides the two multipliers pivot and
    row[k] by prev as complex floats before it multiplies, so no product
    outgrows the minors of the result."""
    a = [list(row) for row in a]
    sign = 1
    exact = mode == EXACT
    for k in range(n - 1):
        if exact:
            pivot = next((i for i in range(k, n) if a[i][k] != (0, 0)), k)
        else:
            norms = [re * re + im * im for re, im in [row[k] for row in a[k:]]]
            pivot = k + norms.index(max(norms))
        if a[pivot][k] == (0, 0):
            return 0, 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        top = a[k]
        divide = k and exact
        pre, pim = _over(top[k], prev_re, prev_im) if k and not exact else top[k]
        for row in a[k + 1 :]:
            fre, fim = _over(row[k], prev_re, prev_im) if k and not exact else row[k]
            for c in range(k + 1, n):
                bre, bim = top[c]
                cre, cim = row[c]
                re = pre * cre - pim * cim - fre * bre + fim * bim
                im = pre * cim + pim * cre - fre * bim - fim * bre
                if divide:
                    # the division as a product with conj(prev) over |prev|^2
                    re, im = re * prev_re + im * prev_im, im * prev_re - re * prev_im
                    re, r_re = divmod(re, norm)
                    im, r_im = divmod(im, norm)
                    if r_re or r_im:
                        raise InvariantError(
                            "Bareiss division by the previous pivot is not exact"
                        )
                row[c] = (re, im)
        prev_re, prev_im = top[k]
        norm = prev_re * prev_re + prev_im * prev_im  # the divisor of exact mode
    re, im = a[n - 1][n - 1]
    return sign * re, sign * im


def _over(pair, re, im):
    """A float pair divided by re + i im, in complex arithmetic."""
    z = complex(*pair) / complex(re, im)
    return z.real, z.imag


def _minor(a, subset, mode):
    """(re, im) of the elimination determinant of the principal submatrix on
    `subset` of a matrix (A, D) in _label_matrix form: in exact mode D^|subset|
    times the minor of M, checked to be real; in approx mode checked to be
    finite, leaving the imaginary rounding to the caller."""
    pair = _det(_principal_submatrix(a, subset), len(subset), mode)
    re, im = _finite(pair, mode, "principal minors")
    if mode == EXACT and im != 0:
        raise InvariantError("principal minor of a Hermitian matrix must be real")
    return re, im


def determinant(g):
    """Determinant of the label matrix, a real scalar for Hermitian input.

    Computed by elimination and cross-checked against the independent
    Faddeev-LeVerrier route through P(0) = (-1)^n det M by _cross_checked,
    both on the matrix A of _label_matrix; det M = det A / D^n.
    """
    _require(g, HermitianStructure, "determinant")
    a, d = _label_matrix(g)
    det = _cross_checked(a, range(g.n), g.mode)
    return GaussianScalar(_descaled(det, d, g.n), 0, g.mode)


def _cross_checked(a, subset, mode):
    """The elimination determinant (_minor) of the principal submatrix on
    `subset` of a matrix (A, D) in _label_matrix form, once it is real and
    equals (-1)^n P(0) from the recurrence on the same submatrix, n the
    size of subset: the one check of elimination against the recurrence,
    for determinant and c3_via_determinants. A failure is a broken
    invariant in exact mode. In approx mode it is rounding that the
    tolerance cannot absorb, such as a near-zero determinant whose
    imaginary rounding outweighs its cancelled real part, so it is an
    InputError."""
    re, im = _minor(a, subset, mode)
    p0 = _recurrence(_principal_submatrix(a, subset), mode)[0][-1]
    expected = p0 if len(subset) % 2 == 0 else -p0
    if not negligible(im, re, mode):
        problem = "determinant of a Hermitian matrix must be real"
    elif not close(re, expected, mode):
        problem = f"determinant routes disagree: elimination {re}, recurrence {expected}"
    else:
        return re
    lost = InputError(f"approx labels lost precision ({problem} within eps); use exact labels")
    raise _failed(mode, problem, lost)


def principal_minor_sum(g, p):
    """Sum of all p x p principal minors of the label matrix, enumerated in
    colexicographic subset order. This is the enumeration side of the
    coefficient identity a_p = (-1)^p * (sum of p x p principal minors); it
    deliberately does not consult char_poly, so the two routes stay
    independent checks of each other.
    """
    _require(g, HermitianStructure, "principal_minor_sum")
    if not isinstance(p, int) or isinstance(p, bool) or not 1 <= p <= g.n:
        raise InputError(f"minor order must satisfy 1 <= p <= {g.n}, got {p!r}")
    a, d = _label_matrix(g)
    total = sum(_minor(a, s, g.mode)[0] for s in colex_subsets(g.n, p))
    return GaussianScalar(_descaled(total, d, p), 0, g.mode)


def scaled_poly(poly, s):
    """Module-level spelling of RealPolynomial.scaled."""
    _require(poly, RealPolynomial, "scaled_poly")
    return poly.scaled(s)
