"""Gaussian scalars, and what each arithmetic mode means.

Exact values keep their real and imaginary parts as reduced rationals
(gmpy2.mpq, falling back to fractions.Fraction when gmpy2 is missing).
Approximate values are pairs of floats compared against a global absolute
tolerance, see get_eps / set_eps. A value never changes mode, and mixing
modes inside one arithmetic operation raises ModeMixError.

This module is the only one that reads the tolerance. It owns:

- real, the coercion of a real value into a mode: a rational in exact
  mode, a float in approx mode;
- close and negligible, the tolerance rule for real values computed from
  labels (polynomial coefficients, traces, determinants, moduli): literal
  equality in exact mode, eps relative to the magnitudes involved (never
  less than eps itself) in approx mode;
- _pairs_match, the same rule for (re, im) component pairs, relative to
  their largest component;
- _compare_polys, the approx comparison of two coefficient lists, which
  also reports whether it sat close enough to its decision to be fragile;
- _too_close, the InputError for approx labels whose derived values
  drift past the tolerance that each label passed on its own;
- _failed, what a failed internal check raises: an InvariantError in
  exact mode, the given InputError in approx mode.
"""

from __future__ import annotations

import math
import numbers
import re
import sys

from .errors import InputError, InvariantError, ModeMixError

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
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"eps must be a positive float, got {value!r}")
    if not value > 0.0 or not math.isfinite(value):
        raise InputError(f"eps must be a positive finite float, got {value!r}")
    previous = _eps
    _eps = value
    return previous


def close(a, b, mode):
    """a == b in exact mode; |a - b| <= eps * max(1, |a|, |b|) in approx mode,
    with a finite tolerance: a non-finite value is close only to an equal
    value, where an infinite tolerance would take inf to be close to
    everything."""
    if mode == EXACT:
        return a == b
    return a == b or abs(a - b) <= _eps * max(1.0, abs(a), abs(b)) < math.inf


def negligible(x, ref, mode):
    """x == 0 in exact mode; |x| <= eps * max(1, |ref|) in approx mode, so
    x is small next to the value ref it accompanies."""
    if mode == EXACT:
        return x == 0
    return abs(x) <= _eps * max(1.0, abs(ref))


def _pairs_match(a, b, mode):
    """Whether two (re, im) component pairs agree: literally in exact mode;
    in approx mode each difference must be negligible next to the largest
    component."""
    if mode == EXACT:
        return a == b
    ref = max(abs(a[0]), abs(a[1]), abs(b[0]), abs(b[1]))
    return negligible(a[0] - b[0], ref, mode) and negligible(a[1] - b[1], ref, mode)


def _compare_polys(a, b):
    """(equal, fragile) for two approx coefficient lists of one length:
    fragile marks a comparison that sits within 10 * eps of its decision
    boundary, in either direction."""
    eps = _eps
    equal = True
    fragile = False
    for ca, cb in zip(a, b):
        tol = eps * max(1.0, abs(ca), abs(cb))
        diff = abs(ca - cb)
        if diff > tol:
            equal = False
        if abs(diff - tol) <= 10.0 * eps:
            fragile = True
    return equal, fragile


def _too_close(what):
    """The InputError for approx labels that pass each tolerance test on
    their own while a value built from them, such as a selector, drifts
    further: its error adds up the errors of several labels and phases."""
    return InputError(
        f"approx labels sit too close to the tolerance: {what} by more than "
        f"eps {_eps!r}; exact labels or another eps decide it"
    )


def _failed(mode, message, error):
    """The error for a failed check on values computed from labels:
    InvariantError(message) in exact mode, where only a bug can fail it,
    and the given InputError in approx mode, where rounding that the
    tolerance cannot absorb can."""
    return InvariantError(message) if mode == EXACT else error


def real(value, mode):
    """value as a real number of the given mode: rational(value) in exact
    mode, float(value) in approx mode, where a value too large for a float,
    or one float() cannot read, is an InputError."""
    if mode == EXACT:
        return rational(value)
    try:
        return float(value)
    except OverflowError:
        raise InputError("approx value too large: it overflows floats") from None
    except (TypeError, ValueError):
        raise InputError(f"cannot interpret {value!r} as an approx float") from None


_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*\Z")


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
        # Python prints no int of more digits than limit, so a literal whose
        # exponent takes its value past them is refused: past the first
        # bound, where the value has more than |exponent| - len(mantissa)
        # digits, before it is built, which takes time that grows with the
        # exponent. limit is 0 with no exponent, and where Python has none.
        match = _EXPONENT.search(value)
        limit = getattr(sys, "get_int_max_str_digits", int)() if match else 0
        exponent = match and match[1].replace("_", "").lstrip("+-")
        if not limit or (len(exponent) <= len(str(limit)) and int(exponent) <= limit + match.start()):
            try:
                q = _rat(value.strip())
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError(f"bad rational literal {value!r}: {exc}")
            if not limit or max(abs(q.numerator), q.denominator) < 10**limit:
                return q
        raise InputError(
            f"bad rational literal {value!r}: its exponent takes it past {limit} digits, "
            "Python's limit for printing an int (sys.get_int_max_str_digits())"
        )
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


class GaussianScalar:
    """A complex scalar a + b*i in one of two modes.

    exact: a, b are reduced rationals and every comparison is literal.
    approx: a, b are floats and comparisons use the global eps, absolute
    on each component.
    """

    __slots__ = ("mode", "re", "im")

    def __init__(self, re, im, mode):
        if mode not in (EXACT, APPROX):
            raise InputError(f"unknown scalar mode {mode!r}")
        re = real(re, mode)
        im = real(im, mode)
        if mode == APPROX and not (math.isfinite(re) and math.isfinite(im)):
            raise InputError(f"approx components must be finite, got {re!r}, {im!r}")
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
        factor = real(factor, self.mode)
        return GaussianScalar(self.re * factor, self.im * factor, self.mode)

    def is_zero(self):
        return negligible(self.re, 0, self.mode) and negligible(self.im, 0, self.mode)

    def is_real(self):
        return negligible(self.im, 0, self.mode)

    def __eq__(self, other):
        if not isinstance(other, GaussianScalar):
            return NotImplemented
        self._require_same_mode(other)
        if self.mode == EXACT:
            return self.re == other.re and self.im == other.im
        return negligible(self.re - other.re, 0, APPROX) and negligible(
            self.im - other.im, 0, APPROX
        )

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
