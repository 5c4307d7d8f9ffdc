"""Exact arithmetic in the real quadratic field Q(sqrt2).

Scalars are a + b*sqrt2 with a, b exact rationals.  Internally a scalar is
kept as an integer triple (an, bn, den) meaning (an + bn*sqrt2)/den with
den > 0 and gcd(an, bn, den) = 1, so equality is structural.  A rational
scalar hashes as the int or Fraction it equals, as it compares equal to it.
"""

import sys
from fractions import Fraction
from math import gcd

_MODULUS = sys.hash_info.modulus
_INF = sys.hash_info.inf


def _whole(an, bn):
    """The scalar an + bn*sqrt2 for integers an, bn; (an, bn, 1) is already
    normalised, so no gcd is taken."""
    s = object.__new__(FieldScalar)
    s.an = an
    s.bn = bn
    s.den = 1
    return s


class FieldScalar:
    __slots__ = ("an", "bn", "den")

    def __init__(self, rational=0, root2=0):
        if type(rational) is int and type(root2) is int:
            self.an, self.bn, self.den = rational, root2, 1
            return
        if isinstance(rational, float) or isinstance(root2, float):
            raise TypeError("floats are not exact; pass an int, Fraction or string")
        a = Fraction(rational)
        b = Fraction(root2)
        da, db = a.denominator, b.denominator
        d = da * db // gcd(da, db)
        self._set(a.numerator * (d // da), b.numerator * (d // db), d)

    def _set(self, an, bn, den):
        if den < 0:
            an, bn, den = -an, -bn, -den
        g = gcd(gcd(an, bn), den)
        if g > 1:
            an //= g
            bn //= g
            den //= g
        self.an = an
        self.bn = bn
        self.den = den

    @classmethod
    def _raw(cls, an, bn, den):
        s = object.__new__(cls)
        s._set(an, bn, den)
        return s

    @property
    def rational_part(self):
        return Fraction(self.an, self.den)

    @property
    def root2_part(self):
        return Fraction(self.bn, self.den)

    def is_zero(self):
        return self.an == 0 and self.bn == 0

    def is_rational(self):
        return self.bn == 0

    def __bool__(self):
        return self.an != 0 or self.bn != 0

    @staticmethod
    def _coerce(x):
        if isinstance(x, FieldScalar):
            return x
        if isinstance(x, int):
            return FieldScalar._raw(x, 0, 1)
        if isinstance(x, Fraction):
            return FieldScalar._raw(x.numerator, 0, x.denominator)
        return None

    def __add__(self, other):
        o = other if type(other) is FieldScalar else self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == 1 and o.den == 1:
            return _whole(self.an + o.an, self.bn + o.bn)
        return FieldScalar._raw(
            self.an * o.den + o.an * self.den,
            self.bn * o.den + o.bn * self.den,
            self.den * o.den,
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is FieldScalar else self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == 1 and o.den == 1:
            return _whole(self.an - o.an, self.bn - o.bn)
        return FieldScalar._raw(
            self.an * o.den - o.an * self.den,
            self.bn * o.den - o.bn * self.den,
            self.den * o.den,
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        if self.den == 1:
            return _whole(-self.an, -self.bn)
        return FieldScalar._raw(-self.an, -self.bn, self.den)

    def __mul__(self, other):
        o = other if type(other) is FieldScalar else self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == 1 and o.den == 1:
            return _whole(self.an * o.an + 2 * self.bn * o.bn,
                          self.an * o.bn + self.bn * o.an)
        return FieldScalar._raw(
            self.an * o.an + 2 * self.bn * o.bn,
            self.an * o.bn + self.bn * o.an,
            self.den * o.den,
        )

    __rmul__ = __mul__

    def inverse(self):
        # (a + b*sqrt2)^-1 = (a - b*sqrt2)/(a^2 - 2 b^2); the norm vanishes
        # only at zero since sqrt2 is irrational.
        nrm = self.an * self.an - 2 * self.bn * self.bn
        if nrm == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt2)")
        return FieldScalar._raw(self.den * self.an, -self.den * self.bn, nrm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = FieldScalar._raw(1, 0, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def conjugate(self):
        return FieldScalar._raw(self.an, -self.bn, self.den)

    def sign(self):
        """Sign of the real number a + b*sqrt2, computed exactly."""
        a, b = self.an, self.bn
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with 2 b^2, never equal as sqrt2 is irrational
        if a > 0:
            return 1 if a * a > 2 * b * b else -1
        return -1 if a * a > 2 * b * b else 1

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.an == o.an and self.bn == o.bn and self.den == o.den

    def __hash__(self):
        # a rational scalar hashes as the int or Fraction it equals, by
        # CPython's rational hash written out, with no Fraction built
        if self.bn:
            return hash((self.an, self.bn, self.den))
        an, den = self.an, self.den
        if den == 1:
            return hash(an)
        try:
            h = hash(abs(an)) * pow(den, -1, _MODULUS) % _MODULUS
        except ValueError:  # den is a multiple of the modulus
            h = _INF
        h = h if an >= 0 else -h
        return -2 if h == -1 else h

    def __str__(self):
        if self.bn == 0:
            return str(Fraction(self.an, self.den))
        root = Fraction(self.bn, self.den)
        mag = abs(root)
        rpart = "√2" if mag == 1 else f"{mag}√2"
        sgn = "-" if root < 0 else ""
        if self.an == 0:
            return sgn + rpart
        head = str(Fraction(self.an, self.den))
        return head + ("-" if root < 0 else "+") + rpart

    def __repr__(self):
        return f"FieldScalar({self})"


def _scalar(c):
    """c as a FieldScalar, the one entry rule of sparse terms and matrices:
    anything but an int, Fraction or FieldScalar is refused."""
    if type(c) is FieldScalar:
        return c
    s = FieldScalar._coerce(c)
    if s is None:
        raise TypeError(f"coefficient {c!r} is not an exact scalar of Q(sqrt2)")
    return s


ZERO = FieldScalar(0)
ONE = FieldScalar(1)
SQRT2 = FieldScalar(0, 1)
HALF = FieldScalar(Fraction(1, 2))


# shorthand constructor; FieldScalar already takes 'p/q' strings
fs = FieldScalar
