"""Scalar fields used throughout the package.

Three modes: exact rationals (the default), exact Gaussian rationals
(rational real and imaginary parts), and machine complex numbers with a
comparison tolerance.  All higher layers go through a Field object so that
the same elimination / evaluation code runs in every mode.

An exact rational is an `int` when it is integral and a `Fraction`
otherwise: most structure constants are integers, and int arithmetic is
much cheaper than Fraction arithmetic.  `QQ.coerce`, `QQ.div`,
`QQ.from_json` and `QQ.sqrt` return that normal form, and the layers that
store scalars pass them through `coerce`.  Two ints must never meet in a
plain `/`, which gives a float: divisions go through `field.div`.  The
JSON form is the same for both types.  The exact fields reject floats.
"""

from __future__ import annotations

import math
from fractions import Fraction


class GaussianRational:
    """a + b*i with a, b exact rationals."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        other = _gq(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        other = _gq(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        other = _gq(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _gq(other)
        if other is NotImplemented:
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return _gq(other) / self

    def __eq__(self, other):
        other = _gq(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))


def _gq(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x, 0)
    return NotImplemented


def _frac_str(q) -> str:
    # canonical "num/den" printing of an int or a Fraction, integers
    # without the "/1"
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def _norm(q):
    """A Fraction as an int when it is integral."""
    return q.numerator if q.denominator == 1 else q


class RationalField:
    name = "rational"
    exact = True

    zero = 0
    one = 1

    def coerce(self, x):
        # type(), not isinstance: a bool is an int, and exact fields take
        # neither bools nor floats
        if type(x) is int:
            return x
        if isinstance(x, Fraction):
            return _norm(x)
        if isinstance(x, str):
            return _norm(Fraction(x))
        raise TypeError("cannot coerce %r to rational" % (x,))

    def div(self, a, b):
        """a / b in normal form: never a float, even for two ints."""
        if type(a) is int and type(b) is int:
            q, r = divmod(a, b)
            return Fraction(a, b) if r else q
        return _norm(Fraction(a, b))

    def is_zero(self, x):
        return x == 0

    def eq(self, a, b):
        return a == b

    def mag(self, x):
        """Magnitude used for pivoting and max-norms (exact rational)."""
        return abs(x)

    def sqrt(self, x):
        """Exact square root, or None when x is not a perfect square."""
        if x < 0:
            return None
        n, d = x.numerator, x.denominator
        rn, rd = math.isqrt(n), math.isqrt(d)
        if rn * rn == n and rd * rd == d:
            return _norm(Fraction(rn, rd))
        return None

    def to_json(self, x):
        return _frac_str(x)

    def from_json(self, s):
        # bool is an int subclass, and a float is already rounded to binary:
        # exact documents carry their coefficients as strings or integers
        if isinstance(s, (bool, float)):
            raise ValueError("bad rational coefficient %r: not exact" % (s,))
        try:
            return _norm(Fraction(s))
        except (TypeError, ZeroDivisionError, OverflowError):
            raise ValueError("bad rational coefficient %r" % (s,)) from None


class GaussianRationalField:
    name = "rational-complex"
    exact = True

    zero = GaussianRational(0)
    one = GaussianRational(1)

    def coerce(self, x):
        if isinstance(x, GaussianRational):
            return x
        if type(x) is int or isinstance(x, Fraction):
            return GaussianRational(x, 0)
        raise TypeError("cannot coerce %r to Gaussian rational" % (x,))

    def div(self, a, b):
        return self.coerce(a) / b

    def is_zero(self, x):
        return not x

    def eq(self, a, b):
        return a == b

    def mag(self, x):
        # |x|^2 as an exact rational; monotone in |x|, good enough for
        # pivot selection and exact norm comparisons
        return x.re * x.re + x.im * x.im

    def sqrt(self, x):
        """The principal exact square root (real part > 0, or real part 0
        and imaginary part >= 0), or None when there is none.  For
        x = a + bi a root exists exactly when m = |x| is rational and
        (m + a)/2 and (m - a)/2 are rational squares: they are the
        squares of its real and imaginary parts, whose product is b/2."""
        m = QQ.sqrt(self.mag(x))
        if m is None:
            return None
        re, im = QQ.sqrt((m + x.re) / 2), QQ.sqrt((m - x.re) / 2)
        if re is None or im is None:
            return None
        return GaussianRational(re, im if x.im >= 0 else -im)

    def to_json(self, x):
        return [_frac_str(x.re), _frac_str(x.im)]

    def from_json(self, s):
        parts = [s, "0"] if isinstance(s, str) else s
        if not isinstance(parts, list) or len(parts) != 2:
            raise ValueError("bad Gaussian rational coefficient %r" % (s,))
        return GaussianRational(QQ.from_json(parts[0]), QQ.from_json(parts[1]))


class FloatComplexField:
    name = "float"
    exact = False

    zero = 0j
    one = 1 + 0j

    def __init__(self, tol=1e-10):
        self.tol = tol

    def coerce(self, x):
        return complex(x)

    def div(self, a, b):
        return a / b

    def is_zero(self, x):
        return abs(x) <= self.tol

    def eq(self, a, b):
        return abs(a - b) <= self.tol * max(1.0, abs(a), abs(b))

    def mag(self, x):
        return abs(x)

    def to_json(self, x):
        if x.imag == 0:
            return repr(x.real)
        return [repr(x.real), repr(x.imag)]

    def from_json(self, s):
        try:
            if isinstance(s, str):
                return complex(float(Fraction(s)) if "/" in s else float(s), 0.0)
            re, im = s
            return complex(float(re), float(im))
        except (TypeError, ValueError, ZeroDivisionError):
            raise ValueError("bad float coefficient %r" % (s,)) from None


QQ = RationalField()
QQi = GaussianRationalField()


def get_field(name):
    if name == "rational":
        return QQ
    if name == "rational-complex":
        return QQi
    if name == "float":
        return FloatComplexField()
    raise ValueError("unknown scalar mode %r" % name)
