"""Exact scalars and degree bookkeeping.

Everything downstream computes over Q(zeta8), the rationals extended by a
primitive 8th root of unity zeta = exp(i*pi/4), represented as
c0 + c1*zeta + c2*zeta^2 + c3*zeta^3 with rational c's and zeta^4 = -1.
zeta^2 is the imaginary unit, so Q(i) sits inside, and zeta itself is the
square root of i that the quaternion-like catalog algebra needs.

Degrees live in Z2 x Z2.  Three sign rules on degree pairs drive the whole
kernel; they are returned as +-1 ints so they slot directly into coefficient
arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Union

from .sparse import format_term, join_terms

Rational = Fraction

RationalLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "CycloScalar"]

_ZERO4 = (Fraction(0), Fraction(0), Fraction(0), Fraction(0))


class CycloScalar:
    """An element c0 + c1*zeta + c2*zeta^2 + c3*zeta^3 of Q(zeta8)."""

    __slots__ = ("c",)

    def __init__(self, c0: RationalLike = 0, c1: RationalLike = 0,
                 c2: RationalLike = 0, c3: RationalLike = 0):
        self.c = (Fraction(c0), Fraction(c1), Fraction(c2), Fraction(c3))

    @classmethod
    def _raw(cls, coeffs) -> "CycloScalar":
        s = object.__new__(cls)
        s.c = coeffs
        return s

    @classmethod
    def from_rational(cls, r: RationalLike) -> "CycloScalar":
        return cls._raw((Fraction(r), Fraction(0), Fraction(0), Fraction(0)))

    @classmethod
    def zero(cls) -> "CycloScalar":
        return cls._raw(_ZERO4)

    @classmethod
    def one(cls) -> "CycloScalar":
        return cls._raw((Fraction(1), Fraction(0), Fraction(0), Fraction(0)))

    @classmethod
    def i(cls) -> "CycloScalar":
        return cls._raw((Fraction(0), Fraction(0), Fraction(1), Fraction(0)))

    @classmethod
    def zeta(cls) -> "CycloScalar":
        return cls._raw((Fraction(0), Fraction(1), Fraction(0), Fraction(0)))

    def is_zero(self) -> bool:
        a = self.c
        return not (a[0] or a[1] or a[2] or a[3])

    def is_rational(self) -> bool:
        a = self.c
        return not (a[1] or a[2] or a[3])

    def is_conj_fixed(self) -> bool:
        # fixed by zeta -> -zeta^3, i.e. real: c2 = 0 and c3 = -c1
        a = self.c
        return not a[2] and a[3] == -a[1]

    @staticmethod
    def _coerce(other: ScalarLike):
        if isinstance(other, CycloScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return CycloScalar.from_rational(other)
        return None

    def __add__(self, other: ScalarLike) -> "CycloScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.c, o.c
        return CycloScalar._raw((a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]))

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "CycloScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.c, o.c
        return CycloScalar._raw((a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]))

    def __rsub__(self, other: ScalarLike) -> "CycloScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "CycloScalar":
        a = self.c
        return CycloScalar._raw((-a[0], -a[1], -a[2], -a[3]))

    def __mul__(self, other: ScalarLike) -> "CycloScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.c, o.c
        # rational fast paths carry most of the catalog workload
        if not (a[1] or a[2] or a[3]):
            r = a[0]
            return CycloScalar._raw((r * b[0], r * b[1], r * b[2], r * b[3]))
        if not (b[1] or b[2] or b[3]):
            r = b[0]
            return CycloScalar._raw((a[0] * r, a[1] * r, a[2] * r, a[3] * r))
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        return CycloScalar._raw((
            a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
            a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
            a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
        ))

    __rmul__ = __mul__

    def galois(self, k: int) -> "CycloScalar":
        """The automorphism zeta -> zeta^k for odd k."""
        if k % 2 == 0:
            raise ValueError("zeta -> zeta^k is an automorphism only for odd k")
        out = [Fraction(0)] * 4
        for j, cj in enumerate(self.c):
            if not cj:
                continue
            m = (j * k) % 8
            if m < 4:
                out[m] += cj
            else:
                out[m - 4] -= cj
        return CycloScalar._raw(tuple(out))

    def conj(self) -> "CycloScalar":
        """Complex conjugation, zeta -> zeta^7 = -zeta^3."""
        a = self.c
        return CycloScalar._raw((a[0], -a[3], -a[2], -a[1]))

    def inverse(self) -> "CycloScalar":
        # multiply the remaining Galois conjugates; the full product is the
        # rational norm, so dividing by it stays exact
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta8)")
        if self.is_rational():
            return CycloScalar._raw((1 / self.c[0], Fraction(0), Fraction(0), Fraction(0)))
        cof = self.galois(3) * self.galois(5) * self.galois(7)
        norm = self * cof
        assert norm.is_rational() and norm.c[0]
        return cof * (1 / norm.c[0])

    def __truediv__(self, other: ScalarLike) -> "CycloScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, n: int) -> "CycloScalar":
        if n < 0:
            return self.inverse() ** (-n)
        out = CycloScalar.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            # a cheap comparison with 1 and -1, which the printer and
            # add_scaled make often
            a = self.c
            return a[0] == other and not (a[1] or a[2] or a[3])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.c == o.c

    def __hash__(self):
        return hash(self.c)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self):
        return f"CycloScalar{self.c}"

    def __str__(self):
        return self.pretty()

    def pretty(self) -> str:
        """Render like '3/2', 'i', '-2*i + z8', with zeta spelled z8."""
        return join_terms(format_term(cj, name)
                          for cj, name in zip(self.c, (None, "z8", "i", "z8^3")) if cj)

    def is_one(self) -> bool:
        a = self.c
        return a[0] == 1 and not (a[1] or a[2] or a[3])


def as_scalar(c: ScalarLike) -> CycloScalar:
    return c if isinstance(c, CycloScalar) else CycloScalar.from_rational(c)


def parse_rational(q: Union[str, int]) -> Fraction:
    """Fraction(q), with a zero denominator reported as a ValueError like
    any other malformed rational."""
    try:
        return Fraction(q)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {q!r}") from exc


ZERO = CycloScalar.zero()
ONE = CycloScalar.one()
I = CycloScalar.i()
ZETA = CycloScalar.zeta()
MINUS_ONE = CycloScalar.from_rational(-1)


class BiDegree(NamedTuple):
    """A Z2 x Z2 degree (eps1, eps2)."""

    eps1: int
    eps2: int

    def __add__(self, other: "BiDegree") -> "BiDegree":  # type: ignore[override]
        return BiDegree((self.eps1 + other.eps1) % 2, (self.eps2 + other.eps2) % 2)

    @property
    def parity(self) -> int:
        return (self.eps1 + self.eps2) % 2

    def pairing(self, other: "BiDegree") -> int:
        """Deligne pairing eps1*eps1' + eps2*eps2' mod 2."""
        return (self.eps1 * other.eps1 + self.eps2 * other.eps2) % 2


D00 = BiDegree(0, 0)
D10 = BiDegree(1, 0)
D01 = BiDegree(0, 1)
D11 = BiDegree(1, 1)
ALL_DEGREES = (D00, D11, D10, D01)


def degree(e1: int, e2: int) -> BiDegree:
    # type() and not isinstance(): True and 1.0 are not degree components
    if type(e1) is not int or type(e2) is not int or e1 not in (0, 1) or e2 not in (0, 1):
        raise ValueError(f"degree components must be 0 or 1, got ({e1!r},{e2!r})")
    return BiDegree(e1, e2)


def sign_deligne(d1: BiDegree, d2: BiDegree) -> int:
    """(-1)^(eps1*eps1' + eps2*eps2'), the symmetric braiding sign."""
    return -1 if (d1.eps1 * d2.eps1 + d1.eps2 * d2.eps2) % 2 else 1


def sign_super(d1: BiDegree, d2: BiDegree) -> int:
    """(-1)^(p*p') on total parities, the one-bit super sign."""
    return -1 if (d1.parity * d2.parity) % 2 else 1


def sign_unbraid(d1: BiDegree, d2: BiDegree) -> int:
    """(-1)^(eps1 of first * eps2 of second).  Not symmetric in its arguments."""
    return -1 if (d1.eps1 * d2.eps2) % 2 else 1
