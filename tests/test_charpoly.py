"""Tests for characteristic polynomials, determinants, minor sums."""

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

import genutil
from spectramono import charpoly
from spectramono.charpoly import (
    RealPolynomial,
    _closed_form,
    _cross_checked,
    _det,
    _pair_dot,
    _principal_submatrix,
    _recurrence,
    char_poly,
    determinant,
    poly_x_squared_minus,
    principal_minor_sum,
    scaled_poly,
)
from spectramono.combinat import colex_subsets
from spectramono.constructions import hat, paley_tournament
from spectramono.core import (
    HermitianStructure,
    Selector,
    Tournament,
    apply_selector,
    constant_structure,
    _label_matrix,
    i_representation,
    substructure,
    transitive_tournament,
)
from spectramono.errors import InputError, InvariantError, ModeMixError
from spectramono.monomorphy import det_constancy, is_k_spectrally_monomorphic
from spectramono.scalars import APPROX, EXACT, GaussianScalar, close, rational

THREE_CYCLE = Tournament.from_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])


def exact_poly(*ascending):
    return RealPolynomial(ascending, EXACT)


rationals = st.builds(
    lambda n, d: rational(n) / rational(d),
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=1, max_value=8),
)
polys = st.lists(rationals, min_size=1, max_size=6).map(
    lambda cs: RealPolynomial(cs, EXACT)
)


class TestRealPolynomial:
    def test_trims_leading_zeros(self):
        p = exact_poly(1, 2, 0, 0)
        assert p.degree == 1
        assert p.coefficients == (rational(1), rational(2))

    def test_zero_polynomial(self):
        p = exact_poly(0, 0)
        assert p.degree == 0
        assert p.to_display() == "0"

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            RealPolynomial([], EXACT)

    def test_hashing(self):
        """Exact polynomials hash by their trimmed coefficients; approx
        ones compare within eps and refuse to hash."""
        p = exact_poly(rational("1/2"), 0, 1)
        assert hash(p) == hash(RealPolynomial(["2/4", 0, 1, 0], EXACT))
        assert len({p, exact_poly("1/2", 0, 1), exact_poly(1)}) == 2
        with pytest.raises(TypeError, match="cannot hash"):
            hash(RealPolynomial([0.5, 0.0, 1.0], APPROX))

    def test_display(self):
        p = exact_poly(0, 21, 0, -10, 0, 1)
        assert p.to_display() == "x^5-10x^3+21x"
        assert exact_poly(-1, 0, 1).to_display() == "x^2-1"
        assert exact_poly("1/2").to_display() == "1/2"

    def test_coefficient_strings(self):
        assert exact_poly(0, -3, 0, 1).coefficient_strings() == ["0", "-3", "0", "1"]

    def test_evaluate(self):
        assert exact_poly(0, -3, 0, 1).evaluate(2) == rational(2)

    def test_monic(self):
        assert exact_poly(0, 1).is_monic()
        assert not exact_poly(1, 2).is_monic()

    def test_scaled_example(self):
        assert poly_x_squared_minus(1).scaled(4) == poly_x_squared_minus(16)

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(InputError):
            poly_x_squared_minus(1).scaled(0)

    def test_scaled_float_overflow_is_an_input_error(self):
        """A scale whose powers, or whose products with the coefficients,
        overflow floats is refused rather than raising OverflowError or
        returning infinite coefficients."""
        for poly, s in (
            (poly_x_squared_minus(1, APPROX), 1e300),
            (RealPolynomial([1e300, 0.0, 1.0], APPROX), 1e10),
        ):
            with pytest.raises(InputError, match="approx scale too large"):
                poly.scaled(s)
        assert poly_x_squared_minus(1).scaled(10**300).coefficients[0] == -(10**600)

    def test_mode_mix(self):
        with pytest.raises(ModeMixError):
            exact_poly(1).multiply(RealPolynomial([1.0], APPROX))


@seed(20240812)
@given(p=polys, q=polys, x=rationals)
def test_multiply_agrees_with_evaluation(p, q, x):
    assert p.multiply(q).evaluate(x) == p.evaluate(x) * q.evaluate(x)


@seed(20240812)
@given(p=polys, k=st.integers(min_value=0, max_value=4), x=rationals)
def test_power_agrees_with_evaluation(p, k, x):
    assert p.power(k).evaluate(x) == p.evaluate(x) ** k


@seed(20240812)
@given(p=polys)
def test_scaled_composes(p):
    assert p.scaled(4).scaled("9/4") == p.scaled(9)


class TestCharPoly:
    def test_three_cycle(self):
        assert char_poly(i_representation(THREE_CYCLE)) == exact_poly(0, -3, 0, 1)

    def test_single_pair(self):
        g = i_representation(transitive_tournament(2))
        assert char_poly(g) == poly_x_squared_minus(1)

    def test_all_zero(self):
        g = constant_structure(4, GaussianScalar.zero())
        assert char_poly(g) == exact_poly(0, 0, 0, 0, 1)

    def test_single_vertex(self):
        g = constant_structure(1, GaussianScalar.zero())
        assert char_poly(g) == exact_poly(0, 1)

    def test_complete_graph(self):
        # labels all 1: eigenvalues n-1 once and -1 repeated
        g = constant_structure(3, GaussianScalar.one())
        assert char_poly(g) == exact_poly(-2, -3, 0, 1)

    def test_dominated_paley_seven(self):
        g = i_representation(hat(paley_tournament(7)))
        assert char_poly(g) == poly_x_squared_minus(7).power(4)

    def test_approx_agrees_with_exact(self):
        g = i_representation(THREE_CYCLE, mode=APPROX)
        p = char_poly(g)
        assert p.mode == APPROX
        assert p == RealPolynomial([0.0, -3.0, 0.0, 1.0], APPROX)

    def test_rejects_non_structure(self):
        with pytest.raises(InputError):
            char_poly([[0]])

    def test_float_overflow_is_an_input_error(self):
        """Approx labels whose matrix powers overflow floats are refused as
        input on every route through the recurrence."""
        big = GaussianScalar.approx(1e150, 1e150)
        zero = GaussianScalar.zero(APPROX)
        g = HermitianStructure(
            [[zero, big, big], [big.conj(), zero, big], [big.conj(), big.conj(), zero]]
        )
        for route in (char_poly, determinant, lambda g: is_k_spectrally_monomorphic(g, 3)):
            with pytest.raises(InputError, match="overflow"):
                route(g)

    def test_approx_precision_loss_is_an_input_error(self):
        """Float copies of twisted constant structures on 12 vertices are
        valid input whose matrix powers outgrow float precision: a trace
        whose real part cancels keeps an imaginary rounding error above eps.
        That is refused as input, never reported as a broken invariant."""
        value = GaussianScalar.exact(rational("3/4"))
        refused = 0
        for s in range(20):
            selector = genutil.random_selector(genutil.rng(s), 12)
            g = genutil.approx_copy(apply_selector(constant_structure(12, value), selector))
            try:
                char_poly(g)
            except InputError as exc:
                assert "lost precision" in str(exc)
                refused += 1
        assert refused > 0

    def test_non_real_trace_is_input_in_approx_mode_only(self):
        """A trace with an imaginary part: a broken invariant for exact
        Gaussian integers, lost precision for floats."""
        for mode, error in ((EXACT, InvariantError), (APPROX, InputError)):
            one = (1, 1) if mode == EXACT else (1.0, 1.0)
            zero = (0, 0) if mode == EXACT else (0.0, 0.0)
            with pytest.raises(error):
                _recurrence([[zero, one], [one, zero]], mode)

    def test_non_real_trace_of_a_formed_power(self):
        """On order 3, M_2 is formed entry by entry before its trace is
        taken: its diagonal is computed, so a non-Hermitian input that
        breaks the realness of that trace is still caught."""
        one, i, zero = (1, 0), (0, 1), (0, 0)
        with pytest.raises(InvariantError, match="must be real"):
            _recurrence([[zero, one, zero], [i, zero, zero], [zero, zero, zero]], EXACT)


class TestDeterminant:
    def test_odd_cycle_is_singular(self):
        assert determinant(i_representation(THREE_CYCLE)) == GaussianScalar.exact(0)

    def test_complete_graph(self):
        g = constant_structure(3, GaussianScalar.one())
        assert determinant(g) == GaussianScalar.exact(2)

    def test_four_subset_values(self):
        """4x4 principal minors of an i-weighted tournament are 9 with a
        cyclically heavy pattern and 1 otherwise."""
        g = i_representation(hat(paley_tournament(7)))
        assert determinant(substructure(g, (0, 1, 2, 3))) == GaussianScalar.exact(1)
        assert determinant(substructure(g, (0, 1, 2, 4))) == GaussianScalar.exact(9)

    def test_matches_constant_term(self):
        r = genutil.rng(13)
        for _ in range(20):
            n = r.randrange(1, 6)
            g = genutil.random_hermitian(r, n)
            d = determinant(g)
            p0 = char_poly(g).coefficients[0]
            assert d.re == (p0 if n % 2 == 0 else -p0)

    def test_approx_near_singular_is_an_input_error(self):
        """Float copies of i-representations of odd tournaments twisted by
        a modulus-5 selector have determinant 0; the elimination leaves an
        imaginary rounding that its cancelled real part cannot absorb, or
        a real part the recurrence does not match within eps. That is
        refused as input, never reported as a broken invariant, while the
        exact structures give 0."""
        refused = 0
        r = genutil.rng(14)
        for _ in range(30):
            n = r.choice((5, 7, 9))
            t = genutil.random_tournament(r, n)
            twist = Selector([r.choice(genutil.MOD5_POOL) for _ in range(n)])
            g = apply_selector(i_representation(t), twist)
            assert determinant(g) == GaussianScalar.exact(0)
            try:
                determinant(genutil.approx_copy(g))
            except InputError as exc:
                assert "lost precision" in str(exc)
                refused += 1
        assert refused > 0

    def test_approx_pivot_has_the_largest_norm(self):
        """A label of 2^-40 at (0, 1) is the first nonzero entry of column
        0. Elimination swaps in the row of largest norm instead, so the
        float determinant of these exactly representable labels stays within
        1e-11 (relative) of the exact one; a tiny pivot would not."""
        r = genutil.rng(17)
        for _ in range(60):
            n = r.randrange(4, 7)
            rows = [[GaussianScalar.exact(0)] * n for _ in range(n)]
            for x in range(n):
                for y in range(x + 1, n):
                    z = GaussianScalar.exact(r.randint(-3, 3), r.randint(-3, 3))
                    if (x, y) == (0, 1):
                        z = GaussianScalar.exact(rational(1) / 2**40)
                    rows[x][y], rows[y][x] = z, z.conj()
            g = HermitianStructure(rows)
            exact = determinant(g).re
            approx = determinant(genutil.approx_copy(g)).re
            assert abs(approx - exact) <= 1e-11 * max(1, abs(exact))

    def test_exact_elimination_checks_each_division(self):
        """Bareiss divisions are exact on Gaussian integers only; entries
        with denominators break that, and the remainder check stops it."""
        half, third, one, zero = (rational("1/2"), 0), (rational("1/3"), 0), (1, 0), (0, 0)
        with pytest.raises(InvariantError, match="not exact"):
            _det([[half, one, one], [one, zero, one], [one, one, third]], 3, EXACT)

    def test_cross_check_failure_is_input_in_approx_mode_only(self, monkeypatch):
        """_cross_checked runs elimination and the recurrence on one
        principal submatrix; each is replaced here by a fixed answer."""
        for mode, error in ((EXACT, InvariantError), (APPROX, InputError)):
            one = 1 if mode == EXACT else 1.0
            a = [[(0 * one, 0 * one)] * 3 for _ in range(3)]

            def routes(det, p0):
                monkeypatch.setattr(charpoly, "_det", lambda sub, n, mode: det)
                monkeypatch.setattr(charpoly, "_recurrence", lambda sub, mode: ([one, p0], []))

            routes((one, one), one)
            with pytest.raises(error, match="must be real"):
                _cross_checked(a, (0, 1), mode)
            routes((one, 0 * one), 2 * one)
            with pytest.raises(error, match="routes disagree"):
                _cross_checked(a, (0, 1), mode)
            routes((one, 0 * one), -one)
            assert _cross_checked(a, (0, 1, 2), mode) == one


class TestPrincipalMinorSum:
    def test_diagonal_vanishes(self):
        r = genutil.rng(14)
        g = genutil.random_hermitian(r, 5)
        assert principal_minor_sum(g, 1) == GaussianScalar.exact(0)

    def test_pair_minors(self):
        # each 2x2 minor is -|label|^2, here -1 for all 10 pairs
        g = i_representation(transitive_tournament(5))
        assert principal_minor_sum(g, 2) == GaussianScalar.exact(-10)

    def test_full_order_is_determinant(self):
        r = genutil.rng(15)
        for _ in range(10):
            n = r.randrange(2, 6)
            g = genutil.random_hermitian(r, n)
            assert principal_minor_sum(g, n) == determinant(g)

    def test_overflowing_minors_are_input_errors(self):
        """Approx labels whose minors overflow floats stop with an input
        error that names the minors, on every route through the
        elimination, rather than with a nan or inf scalar."""
        message = "approx labels too large: principal minors overflow floats"
        zero = GaussianScalar.zero(APPROX)
        for re, im in ((1e150, 1e150), (1e150, -1e150), (6e109, 8e109), (6e109, -8e109)):
            z = GaussianScalar.approx(re, im)
            for n in (3, 5):
                rows = [[z if x < y else z.conj() for y in range(n)] for x in range(n)]
                for x in range(n):
                    rows[x][x] = zero
                g = HermitianStructure(rows)
                with pytest.raises(InputError, match=message):
                    determinant(g)
                for p in range(3, n + 1, 2):
                    for route in (principal_minor_sum, det_constancy):
                        with pytest.raises(InputError, match=message):
                            route(g, p)

    def test_order_validation(self):
        g = constant_structure(3, GaussianScalar.one())
        with pytest.raises(InputError):
            principal_minor_sum(g, 0)
        with pytest.raises(InputError):
            principal_minor_sum(g, 4)


def test_coefficient_identity():
    """x^(n-p) coefficient of the characteristic polynomial equals
    (-1)^p times the sum of the p x p principal minors. The second input
    family has pairwise-coprime label denominators, so the integer
    recurrence runs on D * M with a large D before rescaling. The third
    family is float copies in approx mode, where the minors come from the
    same Bareiss elimination on complex floats and the two sides agree
    within eps."""
    r = genutil.rng(16)
    for family in (genutil.random_hermitian, genutil.random_coprime_hermitian):
        for _ in range(25):
            n = r.randrange(2, 7)
            g = family(r, n)
            p_g = char_poly(g)
            for p in range(1, n + 1):
                sign = rational((-1) ** p)
                assert p_g.coefficients[n - p] == sign * principal_minor_sum(g, p).re
    for family in (genutil.random_hermitian, genutil.random_coprime_hermitian):
        for _ in range(25):
            n = r.randrange(2, 7)
            g = genutil.approx_copy(family(r, n))
            p_g = char_poly(g)
            assert p_g.mode == APPROX
            for p in range(1, n + 1):
                minors = (-1) ** p * principal_minor_sum(g, p).re
                assert close(p_g.coefficients[n - p], minors, APPROX)


def _gaussian_integer_hermitian(r, n, span=5):
    a = [[(0, 0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            re, im = r.randint(-span, span), r.randint(-span, span)
            a[i][j], a[j][i] = (re, im), (re, -im)
    return [tuple(row) for row in a]


class TestKernelParity:
    """The exact recurrence forms only the upper triangle of each power and
    mirrors the rest as conjugates. At orders 7 to 16, on Gaussian-integer
    matrices with negative entries and on cleared matrices A = D * M of
    rational labels (D > 1), it must agree with Bareiss elimination at
    n + 1 integer points, and its adjugates must invert xI - A there."""

    @staticmethod
    def _matrices():
        r = genutil.rng(31)
        for n in range(7, 17):
            yield _gaussian_integer_hermitian(r, n)
            a, d = _label_matrix(genutil.random_hermitian(r, n))
            assert d > 1
            yield a

    @staticmethod
    def _shifted(a, x):
        """x I - A as (re, im) pairs."""
        return [
            [((x if i == j else 0) - re, -im) for j, (re, im) in enumerate(row)]
            for i, row in enumerate(a)
        ]

    @staticmethod
    def _value(descending, x):
        value = 0
        for c in descending:
            value = value * x + c
        return value

    def test_recurrence_matches_elimination(self):
        for a in self._matrices():
            n = len(a)
            descending, _ = _recurrence(a, EXACT)
            for x in range(-3, n - 2):
                assert _det(self._shifted(a, x), n, EXACT) == (self._value(descending, x), 0)

    def test_adjugates_invert_the_shifted_matrix(self):
        """Each adjugate holds the upper triangle row by row; the full
        matrix is rebuilt from it by conjugation, and adj (xI - A) must be
        P(x) I."""
        for a in self._matrices():
            n = len(a)
            points = list(range(-3, n - 2))
            descending, adjugates = _recurrence(a, EXACT, points)
            assert descending == _recurrence(a, EXACT)[0]
            for x, (adj_re, adj_im) in zip(points, adjugates):
                assert len(adj_re) == len(adj_im) == n * (n + 1) // 2
                entries = iter(zip(adj_re, adj_im))
                adj = [[None] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        re, im = next(entries)
                        adj[i][j], adj[j][i] = (re, im), (re, -im)
                b = self._shifted(a, x)
                value = self._value(descending, x)
                for i, row in enumerate(adj):
                    for j, col in enumerate(zip(*b)):
                        assert _pair_dot(row, col) == (value if i == j else 0, 0)


def test_closed_form_matches_recurrence():
    """_closed_form gives every principal submatrix of order 1 to 3 the
    coefficients the recurrence gives it, on cleared matrices A = D * M
    of 1 to 5 vertices with D = 1, 35 or 2^70, label components of both
    signs over divisors of D, and a quarter of them zero."""
    r = genutil.rng(33)
    compared = 0
    divisors = {1: [1], 35: [1, 5, 7, 35], 2**70: [2**j for j in range(71)]}
    for trial in range(240):
        d = list(divisors)[trial % 3]
        n = r.randint(1, 5)
        rows = [[GaussianScalar.exact(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                re, im = (
                    0 if r.random() < 0.25 else rational(r.randint(-9, 9)) / r.choice(divisors[d])
                    for _ in range(2)
                )
                if (i, j) == (0, 1):
                    re = rational(r.choice((-1, 1)) * r.choice((1, 3, 11, 13))) / d
                rows[i][j] = GaussianScalar.exact(re, im)
                rows[j][i] = rows[i][j].conj()
        a, cleared = _label_matrix(HermitianStructure(rows))
        assert cleared == (d if n > 1 else 1)
        for k in range(1, min(n, 3) + 1):
            for subset in colex_subsets(n, k):
                expected, _ = _recurrence(_principal_submatrix(a, subset), EXACT)
                assert _closed_form(a, subset) == expected
                compared += 1
    assert compared >= 1000


def test_selector_scaling_law():
    """char_poly(g^d) == s^n P(x/s) with s = |d|^2."""
    r = genutil.rng(17)
    for _ in range(25):
        n = r.randrange(2, 6)
        g = genutil.random_hermitian(r, n)
        d = genutil.random_selector(r, n)
        left = char_poly(apply_selector(g, d))
        right = scaled_poly(char_poly(g), d.modulus_squared())
        assert left == right


def test_unit_selectors_preserve_char_poly():
    r = genutil.rng(18)
    for _ in range(15):
        n = r.randrange(2, 6)
        g = genutil.random_hermitian(r, n)
        d = genutil.random_unit_selector(r, n)
        assert char_poly(apply_selector(g, d)) == char_poly(g)
