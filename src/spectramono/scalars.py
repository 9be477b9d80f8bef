"""Gaussian scalars: complex numbers with exact rational or float components.

Exact values keep their real and imaginary parts as reduced rationals
(gmpy2.mpq, falling back to fractions.Fraction when gmpy2 is missing).
Approximate values are pairs of floats compared against a global absolute
tolerance, see get_eps / set_eps. A value never changes mode, and mixing
modes inside one arithmetic operation raises ModeMixError.

close and negligible are the tolerance rule for real values computed from
labels (polynomial coefficients, traces, determinants, moduli): literal
equality in exact mode, eps relative to the magnitudes involved (never less
than eps itself) in approx mode.
"""

from __future__ import annotations

import math
import numbers

from .errors import InputError, ModeMixError

try:
    from gmpy2 import mpq as _rat

    BACKEND = "gmpy2.mpq"
except ImportError:
    from fractions import Fraction as _rat

    BACKEND = "fractions.Fraction"

EXACT = "exact"
APPROX = "approx"

DEFAULT_EPS = 1e-9
_eps = DEFAULT_EPS

_RAT_ZERO = _rat(0)
_RAT_ONE = _rat(1)
_RAT_TYPE = type(_RAT_ZERO)


def get_eps():
    """Current absolute tolerance used by approximate comparisons."""
    return _eps


def set_eps(value):
    """Set the approximate-mode tolerance. Returns the previous value."""
    global _eps
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise InputError(f"eps must be a positive float, got {value!r}")
    if not value > 0.0 or not math.isfinite(value):
        raise InputError(f"eps must be a positive finite float, got {value!r}")
    previous = _eps
    _eps = value
    return previous


def close(a, b, mode):
    """a == b in exact mode; |a - b| <= eps * max(1, |a|, |b|) in approx mode."""
    if mode == EXACT:
        return a == b
    return abs(a - b) <= _eps * max(1.0, abs(a), abs(b))


def negligible(x, ref, mode):
    """x == 0 in exact mode; |x| <= eps * max(1, |ref|) in approx mode, so
    x is small next to the value ref it accompanies."""
    if mode == EXACT:
        return x == 0
    return abs(x) <= _eps * max(1.0, abs(ref))


def rational(value):
    """Coerce value to an exact rational. Floats are rejected on purpose:
    an exact computation must never silently absorb binary rounding."""
    # exact type checks first: they keep bool (an int subclass) and every
    # other subclass on the validating path below
    kind = type(value)
    if kind is _RAT_TYPE:
        return value
    if kind is int:
        return _rat(value)
    if isinstance(value, bool):
        raise InputError("booleans are not scalar components")
    if isinstance(value, float):
        raise InputError(
            f"refusing to build an exact rational from float {value!r}; "
            "pass an int, a rational, or a string like '3/4'"
        )
    if isinstance(value, numbers.Rational):
        return _rat(value.numerator, value.denominator)
    if isinstance(value, str):
        try:
            return _rat(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational literal {value!r}: {exc}")
    if isinstance(value, _RAT_TYPE):
        return value
    raise InputError(f"cannot interpret {value!r} as an exact rational")


# ratio(num, den) is the exact rational num / den of two ints, reduced; it
# is the backend's own constructor, called without a wrapper on hot paths
ratio = _rat


def rational_sqrt(q):
    """Exact square root of a nonnegative rational, or None when irrational."""
    q = rational(q)
    if q < 0:
        return None
    num, den = int(q.numerator), int(q.denominator)
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return _rat(rn, rd)
    return None


# the most values of a that two_square_root tries, about 0.25 s of search
TWO_SQUARE_CANDIDATES = 1 << 20
# two_square_root divides out the odd numbers 3 mod 4 below this before its search
TWO_SQUARE_TRIAL_BOUND = 1000


def two_square_root(q):
    """Some exact Gaussian scalar u with |u|^2 == q, or None when none exists.

    A positive rational p/r (reduced) is a sum of two rational squares exactly
    when p*r is a sum of two integer squares a^2 + b^2, that is when every
    prime 3 mod 4 divides p*r to an even power. So None comes at once when
    the odd part of p*r is 3 mod 4, or when trial division by the odd
    numbers 3 mod 4 below TWO_SQUARE_TRIAL_BOUND, each divided out in full
    in increasing order (so only primes divide), finds an odd power. The
    search is brute force over a from isqrt(p*r) down to a >= b, so the
    largest a is found first. It tries at most TWO_SQUARE_CANDIDATES
    values, since the range grows with sqrt(p*r); a search that ends there
    without an answer is an InputError, not a claim that none exists.
    """
    q = rational(q)
    if q <= 0:
        return None
    num, den = int(q.numerator), int(q.denominator)
    target = num * den
    odd = target >> ((target & -target).bit_length() - 1)
    if odd % 4 == 3:
        return None
    for p in range(3, TWO_SQUARE_TRIAL_BOUND, 4):
        power = 0
        while odd % p == 0:
            odd //= p
            power += 1
        if power % 2:
            return None
    top = math.isqrt(target)
    bottom = math.isqrt((target - 1) // 2)
    for a in range(top, max(bottom, top - TWO_SQUARE_CANDIDATES), -1):
        rest = target - a * a
        b = math.isqrt(rest)
        if b * b == rest:
            return GaussianScalar.exact(_rat(a, den), _rat(b, den))
    if top - bottom > TWO_SQUARE_CANDIDATES:
        raise InputError(
            f"{q} is too large for the two-square search: "
            f"more than {TWO_SQUARE_CANDIDATES} candidates"
        )
    return None


class GaussianScalar:
    """A complex scalar a + b*i in one of two modes.

    exact: a, b are reduced rationals and every comparison is literal.
    approx: a, b are floats and comparisons use the global eps, absolute
    on each component.
    """

    __slots__ = ("mode", "re", "im")

    def __init__(self, re, im, mode):
        if mode == EXACT:
            re = rational(re)
            im = rational(im)
        elif mode == APPROX:
            re = float(re)
            im = float(im)
            if not (math.isfinite(re) and math.isfinite(im)):
                raise InputError(f"approx components must be finite, got {re!r}, {im!r}")
        else:
            raise InputError(f"unknown scalar mode {mode!r}")
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianScalar is immutable")

    @classmethod
    def exact(cls, re, im=0):
        return cls(re, im, EXACT)

    @classmethod
    def approx(cls, re, im=0.0):
        return cls(re, im, APPROX)

    @classmethod
    def zero(cls, mode=EXACT):
        return cls(0, 0, mode)

    @classmethod
    def one(cls, mode=EXACT):
        return cls(1, 0, mode)

    @classmethod
    def i_unit(cls, mode=EXACT):
        return cls(0, 1, mode)

    def _require_same_mode(self, other):
        if not isinstance(other, GaussianScalar):
            raise InputError(f"expected a GaussianScalar, got {other!r}")
        if other.mode != self.mode:
            raise ModeMixError(
                f"cannot combine {self.mode} and {other.mode} scalars"
            )

    def __add__(self, other):
        self._require_same_mode(other)
        return GaussianScalar(self.re + other.re, self.im + other.im, self.mode)

    def __sub__(self, other):
        self._require_same_mode(other)
        return GaussianScalar(self.re - other.re, self.im - other.im, self.mode)

    def __mul__(self, other):
        self._require_same_mode(other)
        return GaussianScalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
            self.mode,
        )

    def __neg__(self):
        return GaussianScalar(-self.re, -self.im, self.mode)

    def conj(self):
        return GaussianScalar(self.re, -self.im, self.mode)

    def modulus_squared(self):
        """|z|^2 as a rational (exact mode) or float (approx mode)."""
        return self.re * self.re + self.im * self.im

    def inverse(self):
        """1/z. Raises on (effective) zero."""
        if self.is_zero():
            raise InputError("zero scalar has no inverse")
        n = self.modulus_squared()
        return GaussianScalar(self.re / n, -self.im / n, self.mode)

    def scale(self, factor):
        """Multiply by a real scalar given as rational (exact) or float (approx)."""
        if self.mode == EXACT:
            factor = rational(factor)
        else:
            factor = float(factor)
        return GaussianScalar(self.re * factor, self.im * factor, self.mode)

    def is_zero(self):
        if self.mode == EXACT:
            return self.re == 0 and self.im == 0
        return abs(self.re) <= _eps and abs(self.im) <= _eps

    def is_real(self):
        if self.mode == EXACT:
            return self.im == 0
        return abs(self.im) <= _eps

    def __eq__(self, other):
        if not isinstance(other, GaussianScalar):
            return NotImplemented
        self._require_same_mode(other)
        if self.mode == EXACT:
            return self.re == other.re and self.im == other.im
        return abs(self.re - other.re) <= _eps and abs(self.im - other.im) <= _eps

    def __hash__(self):
        if self.mode == APPROX:
            raise TypeError("approx scalars compare within eps and cannot hash")
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianScalar({self.to_text()!r}, mode={self.mode!r})"

    def to_text(self):
        """Canonical text form, see parse_scalar for the grammar."""
        if self.mode == APPROX:
            return f"{self.re!r},{self.im!r}"
        if self.im == 0:
            return str(self.re)
        imag = str(self.im) + "i"
        if self.re == 0:
            return imag
        if self.im > 0:
            return str(self.re) + "+" + imag
        return str(self.re) + imag  # str() of a negative rational carries the sign


def _parse_exact_text(text):
    body = text.strip().replace(" ", "")
    if not body:
        raise InputError("empty scalar literal")
    if not body.endswith("i"):
        return GaussianScalar.exact(rational(body), 0)
    body = body[:-1]
    split = None
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "+-/":
            split = k
            break
    if split is None:
        re_text, im_text = "0", body
    else:
        re_text, im_text = body[:split], body[split:]
    if im_text in ("", "+"):
        im = _RAT_ONE
    elif im_text == "-":
        im = -_RAT_ONE
    else:
        # mpq rejects an explicit leading plus
        im = rational(im_text[1:] if im_text.startswith("+") else im_text)
    return GaussianScalar.exact(rational(re_text), im)


def parse_scalar(text, mode):
    """Parse the document grammar back into a scalar.

    exact: "a/b", "a/b+c/di", "a/b-c/di", "c/di", and the shorthands
           "i", "-i", "+i". Components are rational literals.
    approx: "re,im" with float literals.
    """
    if not isinstance(text, str):
        raise InputError(f"scalar literal must be a string, got {text!r}")
    if mode == EXACT:
        if "," in text:
            raise InputError(f"comma form {text!r} is the approx grammar, mode is exact")
        return _parse_exact_text(text)
    if mode == APPROX:
        parts = text.split(",")
        if len(parts) != 2:
            raise InputError(f"approx scalar must look like 're,im', got {text!r}")
        try:
            return GaussianScalar.approx(float(parts[0]), float(parts[1]))
        except ValueError as exc:
            raise InputError(f"bad float in {text!r}: {exc}")
    raise InputError(f"unknown scalar mode {mode!r}")
