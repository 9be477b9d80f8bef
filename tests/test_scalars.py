"""Tests for exact/approx Gaussian scalars and the rational helpers."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from spectramono.errors import InputError, ModeMixError
from spectramono.scalars import (
    APPROX,
    EXACT,
    TWO_SQUARE_CANDIDATES,
    TWO_SQUARE_TRIAL_BOUND,
    GaussianScalar,
    close,
    get_eps,
    negligible,
    parse_scalar,
    rational,
    rational_sqrt,
    set_eps,
    two_square_root,
)


def exact(re, im=0):
    return GaussianScalar.exact(re, im)


rationals = st.builds(
    lambda n, d: rational(n) / rational(d),
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=12),
)
exact_scalars = st.builds(GaussianScalar.exact, rationals, rationals)
nonzero_exact_scalars = exact_scalars.filter(lambda z: not z.is_zero())


class TestRational:
    def test_string_forms(self):
        assert rational("3/4") == rational(3) / rational(4)
        assert rational(" -7 ") == rational(-7)

    def test_reduction(self):
        assert str(rational("6/4")) == "3/2"

    def test_rejects_float(self):
        with pytest.raises(InputError):
            rational(0.5)

    def test_rejects_bool(self):
        with pytest.raises(InputError):
            rational(True)

    def test_rejects_zero_denominator(self):
        with pytest.raises(InputError):
            rational("1/0")

    def test_fast_path_keeps_rejections(self):
        """bool is an int subclass and must not slip through the int fast
        path; floats stay rejected too."""
        for bad in (True, False, 0.5, 2.0, float("nan")):
            with pytest.raises(InputError):
                rational(bad)

    def test_fast_path_accepts(self):
        backend = type(rational(0))
        assert type(rational(7)) is backend and rational(7) == 7
        assert type(rational(-3)) is backend
        q = rational("3/4")
        assert rational(q) is q
        from_fraction = rational(Fraction(-6, 8))
        assert type(from_fraction) is backend
        assert from_fraction == rational("-3/4")
        assert rational(" 10/4 ") == rational(5) / rational(2)
        assert type(rational(" 10/4 ")) is backend


class TestRationalSqrt:
    def test_perfect_square(self):
        assert rational_sqrt("9/4") == rational("3/2")
        assert rational_sqrt(0) == 0

    def test_irrational(self):
        assert rational_sqrt(2) is None
        assert rational_sqrt("1/3") is None

    def test_negative(self):
        assert rational_sqrt(-4) is None


class TestTwoSquareRoot:
    def test_five(self):
        u = two_square_root(5)
        assert u is not None
        assert u.modulus_squared() == rational(5)

    def test_rational_target(self):
        u = two_square_root("9/2")
        assert u is not None
        assert u.modulus_squared() == rational("9/2")

    def test_unrepresentable(self):
        # 3 = 3 mod 4 is not a sum of two integer squares
        assert two_square_root(3) is None
        assert two_square_root("1/3") is None

    def test_nonpositive(self):
        assert two_square_root(0) is None
        assert two_square_root(-5) is None

    def test_largest_a_first(self):
        """The search stops at a >= b; the largest a is still the one found,
        as when every a down to 0 was tried."""
        for target in range(1, 400):
            expected = None
            for a in range(math.isqrt(target), -1, -1):
                b = math.isqrt(target - a * a)
                if a * a + b * b == target:
                    expected = (a, b)
                    break
            u = two_square_root(target)
            assert (None if u is None else (u.re, u.im)) == expected, target

    def test_search_is_bounded(self):
        """The search range grows with sqrt(p * r). It stops after
        TWO_SQUARE_CANDIDATES values; a target answered within them is
        answered however large, and one that is not is refused. The refused
        and the fully searched targets are products of two primes 3 mod 4
        above TWO_SQUARE_TRIAL_BOUND: no sum of two squares, but 1 mod 4
        and without a small factor, so nothing decides them before the
        search."""
        top = 1 << 40
        for target in (top**2 + 1, rational(top**2 + 9) / 4):
            assert two_square_root(target).modulus_squared() == target
        huge = 1000000000039 * 1000000000063
        for q in (huge, rational(huge) / 5):
            with pytest.raises(InputError, match="too large for the two-square search"):
                two_square_root(q)
        # just inside the bound the whole range is still searched
        inside = 1480931 * 1480991
        assert math.isqrt(inside) - math.isqrt((inside - 1) // 2) < TWO_SQUARE_CANDIDATES
        assert two_square_root(inside) is None

    def test_obstructions_answer_at_once(self):
        """10^24 + 7 is 3 mod 4 and 3 * (10^24 + 7) has the single factor
        3: neither is a sum of two squares, decided without a search."""
        start = time.perf_counter()
        for q in (10**24 + 7, rational(10**24 + 7) / 3):
            assert two_square_root(q) is None
        assert time.perf_counter() - start < 0.05

    def test_trial_division_keeps_even_powers(self):
        """Targets with even powers of primes 3 mod 4 and with prime factors
        above TWO_SQUARE_TRIAL_BOUND (1009, 1013 and 1021 are 1 mod 4, 1019
        and 1031 are 3 mod 4) are answered as the whole search answers."""
        assert TWO_SQUARE_TRIAL_BOUND < 1009
        big = [9 * 1009, 49 * 1013, 3**4 * 7**2 * 1021, 1019 * 1031, 9 * 1019 * 1031]
        targets = list(range(10**6, 10**6 + 200)) + big
        for target in targets:
            representable = any(
                math.isqrt(target - a * a) ** 2 == target - a * a
                for a in range(math.isqrt(target) + 1)
            )
            assert (two_square_root(target) is not None) == representable, target


class TestExactArithmetic:
    def test_product(self):
        z = exact(3, 4) * exact(3, -4)
        assert z == exact(25)

    def test_inverse(self):
        z = exact(3, 4)
        assert z * z.inverse() == exact(1)

    def test_zero_inverse_raises(self):
        with pytest.raises(InputError):
            exact(0).inverse()

    def test_scale_rejects_float(self):
        with pytest.raises(InputError):
            exact(1, 1).scale(0.5)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            exact(1).re = rational(2)

    def test_mode_mixing(self):
        with pytest.raises(ModeMixError):
            exact(1) + GaussianScalar.approx(1.0)
        with pytest.raises(ModeMixError):
            exact(1) == GaussianScalar.approx(1.0)

    def test_hashable(self):
        assert len({exact(1, 2), exact(1, 2), exact(2, 1)}) == 2


@seed(20240811)
@given(a=exact_scalars, b=exact_scalars)
def test_conj_is_multiplicative(a, b):
    assert (a * b).conj() == a.conj() * b.conj()


@seed(20240811)
@given(a=exact_scalars)
def test_conj_involution(a):
    assert a.conj().conj() == a


@seed(20240811)
@given(a=exact_scalars, b=exact_scalars)
def test_modulus_squared_multiplicative(a, b):
    assert (a * b).modulus_squared() == a.modulus_squared() * b.modulus_squared()


@seed(20240811)
@given(a=exact_scalars)
def test_modulus_squared_via_conj(a):
    z = a * a.conj()
    assert z.im == 0
    assert z.re == a.modulus_squared()


@seed(20240811)
@given(a=exact_scalars)
def test_text_round_trip(a):
    assert parse_scalar(a.to_text(), EXACT) == a


class TestTextForms:
    def test_exact_literals(self):
        assert parse_scalar("3/4+1/2i", EXACT) == exact("3/4", "1/2")
        assert parse_scalar("-i", EXACT) == exact(0, -1)
        assert parse_scalar("i", EXACT) == exact(0, 1)
        assert parse_scalar("5", EXACT) == exact(5)
        assert parse_scalar("-2/7i", EXACT) == exact(0, "-2/7")

    def test_exact_rejects_comma_form(self):
        with pytest.raises(InputError):
            parse_scalar("1.0,2.0", EXACT)

    def test_approx_literals(self):
        z = parse_scalar("1.5,-2.25", APPROX)
        assert z.mode == APPROX
        assert z.re == 1.5 and z.im == -2.25

    def test_approx_rejects_single_component(self):
        with pytest.raises(InputError):
            parse_scalar("1.5", APPROX)

    def test_rejects_garbage(self):
        with pytest.raises(InputError):
            parse_scalar("three", EXACT)
        with pytest.raises(InputError):
            parse_scalar("", EXACT)


class TestApproxMode:
    def test_eps_controls_zero(self):
        old = set_eps(1e-6)
        try:
            assert GaussianScalar.approx(1e-7, 0.0).is_zero()
            assert not GaussianScalar.approx(1e-3, 0.0).is_zero()
        finally:
            set_eps(old)

    def test_set_eps_returns_previous(self):
        old = get_eps()
        assert set_eps(1e-3) == old
        assert set_eps(old) == 1e-3

    def test_set_eps_validates(self):
        with pytest.raises(InputError):
            set_eps(-1.0)
        with pytest.raises(InputError):
            set_eps(float("nan"))

    def test_equality_within_eps(self):
        a = GaussianScalar.approx(1.0, 0.0)
        b = GaussianScalar.approx(1.0 + 1e-12, 0.0)
        assert a == b

    def test_no_hash(self):
        with pytest.raises(TypeError):
            hash(GaussianScalar.approx(1.0))

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            GaussianScalar.approx(float("inf"), 0.0)


class TestTolerance:
    """close and negligible, the tolerance rule, at its boundary. The
    approx cases use powers of two so every difference is exact."""

    def test_exact_is_literal(self):
        tiny = rational("1/1000000000000000000000000")
        assert close(rational("1/3"), rational("2/6"), EXACT)
        assert not close(rational(1), 1 + tiny, EXACT)
        assert negligible(rational(0), rational(5), EXACT)
        assert not negligible(tiny, rational(0), EXACT)

    def test_default_eps(self):
        assert get_eps() == 1e-9
        assert close(0.0, 1e-9, APPROX)
        assert not close(0.0, 1e-8, APPROX)
        assert negligible(1e-9, 0.0, APPROX)
        assert not negligible(1e-8, 0.0, APPROX)

    def test_boundary_after_set_eps(self):
        old = set_eps(2.0**-30)
        try:
            # floor: never tighter than eps itself
            assert close(0.0, 2.0**-30, APPROX)
            assert not close(0.0, 2.0**-29, APPROX)
            assert negligible(2.0**-30, 0.5, APPROX)
            assert not negligible(2.0**-29, 0.5, APPROX)
            # relative to the larger magnitude, on either side
            assert close(1024.0, 1024.0 + 2.0**-20, APPROX)
            assert not close(1024.0, 1024.0 + 2.0**-19, APPROX)
            assert close(2048.0, 2048.0 - 2.0**-19, APPROX)
            assert close(2048.0 - 2.0**-19, 2048.0, APPROX)
            # negligible scales with |ref|, not with x
            assert negligible(2.0**-20, -1024.0, APPROX)
            assert not negligible(-(2.0**-19), 1024.0, APPROX)
        finally:
            set_eps(old)
        assert not close(0.0, 2.0**-29, APPROX)

    def test_set_eps_widens(self):
        old = set_eps(1e-6)
        try:
            assert close(0.0, 1e-8, APPROX)
            assert negligible(1e-8, 0.0, APPROX)
        finally:
            set_eps(old)
