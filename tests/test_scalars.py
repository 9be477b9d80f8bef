"""Tests for exact/approx Gaussian scalars and the rational helpers."""

import ast
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

import spectramono
from spectramono.charpoly import RealPolynomial, poly_x_squared_minus
from spectramono.core import Selector
from spectramono.errors import InputError, ModeMixError
from spectramono.scalars import (
    APPROX,
    EXACT,
    GaussianScalar,
    close,
    get_eps,
    negligible,
    parse_scalar,
    rational,
    rational_sqrt,
    set_eps,
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

    def test_rejects_other_types(self):
        for bad in (1j, None, [1]):
            with pytest.raises(InputError, match="cannot interpret .* as an exact rational"):
                rational(bad)

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


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", int)(), reason="Python prints ints of any length"
)
class TestLongLiterals:
    """Python prints no int of more than sys.get_int_max_str_digits()
    digits, so a literal whose exponent takes its value past that is
    refused, and one far past it is refused before it is built."""

    def test_limit_is_exact(self):
        limit = sys.get_int_max_str_digits()
        assert len(str(rational(f"1e{limit - 1}"))) == limit
        assert rational(f"0.01e{limit}") == 10 ** (limit - 2)
        assert rational(f"5e-{limit}").denominator == 2 * 10 ** (limit - 1)
        for text in (f"1e{limit}", f"1e-{limit}", f"12345e{limit - 3}", f" 1E+{limit} "):
            with pytest.raises(InputError, match=f"past {limit} digits, Python's limit"):
                rational(text)

    def test_huge_exponents_are_refused_at_once(self):
        start = time.perf_counter()
        for text in ("1e1000000", "1e-1000000", "0.5e" + "9" * 5000):
            with pytest.raises(InputError, match="sys.get_int_max_str_digits"):
                rational(text)
        assert time.perf_counter() - start < 0.05


class TestRationalSqrt:
    def test_perfect_square(self):
        assert rational_sqrt("9/4") == rational("3/2")
        assert rational_sqrt(0) == 0

    def test_irrational(self):
        assert rational_sqrt(2) is None
        assert rational_sqrt("1/3") is None

    def test_negative(self):
        assert rational_sqrt(-4) is None


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

    def test_sum_and_difference(self):
        assert exact("1/2", 2) + exact(3, "-4/3") == exact("7/2", "2/3")
        assert exact("1/2", 2) - exact(3, "-4/3") == exact("-5/2", "10/3")
        z = GaussianScalar.approx(0.5, 1.0) - GaussianScalar.approx(0.25, -2.0)
        assert (z.re, z.im, z.mode) == (0.25, 3.0, APPROX)
        z = GaussianScalar.approx(0.5, 1.0) + GaussianScalar.approx(0.25, -2.0)
        assert (z.re, z.im, z.mode) == (0.75, -1.0, APPROX)
        with pytest.raises(ModeMixError):
            exact(1) - GaussianScalar.approx(1.0)


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

    def test_reads_numeric_strings(self):
        assert GaussianScalar("1.5", " -2 ", APPROX).to_text() == "1.5,-2.0"
        assert RealPolynomial(["1.5", "1e-3"], APPROX).evaluate("2") == 1.502

    @pytest.mark.parametrize(
        "call",
        [
            lambda: GaussianScalar.approx(10**400),
            lambda: GaussianScalar.approx(1.0).scale(10**400),
            lambda: Selector([GaussianScalar.approx(1.0)], 10**400),
            lambda: RealPolynomial([10**400], APPROX),
            lambda: RealPolynomial([1.0, 1.0], APPROX).evaluate(10**400),
            lambda: RealPolynomial([1.0, 1.0], APPROX).scaled(10**400),
            lambda: poly_x_squared_minus(10**400, APPROX),
            lambda: set_eps(10**400),
        ],
        ids=[
            "scalar",
            "scale",
            "selector",
            "polynomial",
            "evaluate",
            "scaled",
            "x_squared_minus",
            "eps",
        ],
    )
    def test_int_beyond_floats_is_an_input_error(self, call):
        old = get_eps()
        try:
            with pytest.raises(InputError):
                call()
        finally:
            set_eps(old)


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

    def test_non_finite_values_are_close_only_to_themselves(self):
        """An infinite value would make the tolerance infinite, and so close
        to every finite value."""
        inf, nan = float("inf"), float("nan")
        assert RealPolynomial([inf, 1.0], APPROX) != RealPolynomial([5.0, 1.0], APPROX)
        assert RealPolynomial([inf, 1.0], APPROX) == RealPolynomial([inf, 1.0], APPROX)
        assert close(inf, inf, APPROX) and close(-inf, -inf, APPROX)
        for a, b in [(inf, 5.0), (5.0, inf), (-inf, 1e308), (inf, -inf), (nan, nan), (nan, 0.0)]:
            assert not close(a, b, APPROX)
        # a difference that overflows between finite values is not close either
        assert not close(1.7e308, -1.7e308, APPROX)


def test_only_scalars_reads_the_tolerance():
    """scalars owns every tolerance test: no other module names get_eps or
    _eps, except __init__, which may re-export get_eps but not use it."""
    readers = []
    for path in sorted(Path(spectramono.__file__).parent.glob("*.py")):
        if path.name == "scalars.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias) and path.name != "__init__.py":
                name = node.name
            else:
                continue
            if name in ("get_eps", "_eps"):
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []
