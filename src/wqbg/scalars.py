"""Exact scalar arithmetic for the golden-ratio ring Z[phi] and its fraction field.

Root coordinates of the crystallographic types are plain Python ints (with
``fractions.Fraction`` wherever division is forced).  The H3/H4 geometric
representation needs the ring Z[phi] with phi^2 = phi + 1; elements are kept
as exact coefficient pairs a + b*phi.  Comparisons use the real embedding
phi = (1+sqrt 5)/2 and are decided by sign analysis plus squaring, so no
floating point ever enters.

Dihedral groups I_m deliberately avoid coordinates altogether (see
``wqbg.coxeter``), so no cyclotomic arithmetic beyond Z[phi] is needed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


class Golden:
    """a + b*phi with phi^2 = phi + 1; a, b are ints or Fractions."""

    __slots__ = ("a", "b")

    def __init__(self, a: Rational = 0, b: Rational = 0):
        self.a = a
        self.b = b

    def __repr__(self):
        if self.b == 0:
            return f"{self.a}"
        if self.a == 0:
            return f"{self.b}*phi"
        return f"({self.a}+{self.b}*phi)"

    def __hash__(self):
        return hash((self.a, self.b))

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Golden(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return Golden(-self.a, -self.b)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Golden(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # (a+b phi)(c+d phi) = ac + bd + (ad+bc+bd) phi
        a, b, c, d = self.a, self.b, other.a, other.b
        return Golden(a * c + b * d, a * d + b * c + b * d)

    __rmul__ = __mul__

    def conj(self) -> "Golden":
        """Galois conjugate phi -> 1 - phi."""
        return Golden(self.a + self.b, -self.b)

    def norm(self) -> Rational:
        """Field norm a^2 + ab - b^2 (a rational number)."""
        return self.a * self.a + self.a * self.b - self.b * self.b

    def inverse(self) -> "Golden":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(phi)")
        c = self.conj()
        return Golden(Fraction(c.a, 1) / n, Fraction(c.b, 1) / n)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def sign(self) -> int:
        """Sign of a + b*(1+sqrt5)/2, decided exactly.

        a + b*phi > 0  iff  (2a+b) > -b*sqrt5, which reduces to comparing
        squares once both sides have known signs.
        """
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        lhs = 2 * a + b  # compare lhs vs (-b)*sqrt5
        rhs = -b
        if rhs <= 0 <= lhs:
            return 1 if (lhs > 0 or rhs < 0) else 0
        if lhs <= 0 <= rhs:
            return -1 if (lhs < 0 or rhs > 0) else 0
        # both strictly positive or both strictly negative: square
        s = 1 if lhs > 0 else -1
        diff = lhs * lhs - 5 * rhs * rhs
        if diff == 0:
            return 0  # unreachable: sqrt5 is irrational
        return s if diff > 0 else -s

    def __lt__(self, other):
        other = _coerce(other)
        return (self - other).sign() < 0

    def __le__(self, other):
        other = _coerce(other)
        return (self - other).sign() <= 0

    def __gt__(self, other):
        other = _coerce(other)
        return (self - other).sign() > 0

    def __ge__(self, other):
        other = _coerce(other)
        return (self - other).sign() >= 0


PHI = Golden(0, 1)


def frac_str(v):
    """A Fraction as its "p" or "p/q" string, the form the JSON output uses;
    any other value as it is."""
    return str(v) if isinstance(v, Fraction) else v


def _coerce(x):
    if isinstance(x, Golden):
        return x
    if isinstance(x, (int, Fraction)):
        return Golden(x, 0)
    return NotImplemented

