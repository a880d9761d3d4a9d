"""Exact scalars and degree bookkeeping.

Everything downstream computes over Q(zeta8), the rationals extended by a
primitive 8th root of unity zeta = exp(i*pi/4), represented as
(c0 + c1*zeta + c2*zeta^2 + c3*zeta^3) / d with integer c's, a positive
integer d and zeta^4 = -1.  The form is canonical, gcd(c0, c1, c2, c3, d) =
1 and zero is 0/1, so equal scalars have equal coordinates.  These are the
integral coordinates over one denominator of Cohen, "A Course in
Computational Algebraic Number Theory" (1993), section 4.2: the arithmetic is
int arithmetic, and most catalog constants have d = 1 or 2.  zeta^2 is the
imaginary unit, so Q(i) sits inside, and zeta itself is the square root of i
that the quaternion-like catalog algebra needs.

Degrees live in Z2 x Z2.  Three sign rules on degree pairs drive the whole
kernel; they are returned as +-1 ints so they slot directly into coefficient
arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Union

from .sparse import format_term, join_terms

Rational = Fraction

RationalLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "CycloScalar"]

_new = object.__new__


def _scalar(c0: int, c1: int, c2: int, c3: int, d: int) -> "CycloScalar":
    """(c0 + c1 z + c2 z^2 + c3 z^3) / d for d > 0, in lowest terms."""
    if d != 1:
        g = gcd(c0, c1, c2, c3, d)
        if g != 1:
            c0 //= g
            c1 //= g
            c2 //= g
            c3 //= g
            d //= g
    s = _new(CycloScalar)
    s.c = (c0, c1, c2, c3)
    s.d = d
    return s


def _times(a: tuple, b: tuple) -> tuple:
    """The product of two integer coordinate vectors, reduced by z^4 = -1."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
            a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
            a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0)


def _galois(a: tuple, k: int) -> tuple:
    """The coordinates of zeta -> zeta^k applied to a, for odd k."""
    out = [0, 0, 0, 0]
    for j, cj in enumerate(a):
        m = (j * k) % 8
        if m < 4:
            out[m] += cj
        else:
            out[m - 4] -= cj
    return tuple(out)


def _ratio(n: int, d: int):
    """n/d as format_term prints and compares its Fraction: an int when
    whole, else the string 'n/d' in lowest terms, which equals no int."""
    g = gcd(n, d)
    return n // g if g == d else f"{n // g}/{d // g}"


class CycloScalar:
    """An element (c0 + c1*zeta + c2*zeta^2 + c3*zeta^3) / d of Q(zeta8),
    with int c's and d > 0 in lowest terms."""

    __slots__ = ("c", "d")

    def __init__(self, c0: RationalLike = 0, c1: RationalLike = 0,
                 c2: RationalLike = 0, c3: RationalLike = 0):
        qs = [q if isinstance(q, Fraction) else Fraction(q) for q in (c0, c1, c2, c3)]
        d = lcm(*(q.denominator for q in qs))
        # over the lcm of reduced denominators the form is already lowest
        self.c = tuple(q.numerator * (d // q.denominator) for q in qs)
        self.d = d

    @classmethod
    def from_rational(cls, r: RationalLike) -> "CycloScalar":
        if isinstance(r, int):
            return _scalar(int(r), 0, 0, 0, 1)
        r = r if isinstance(r, Fraction) else Fraction(r)
        return _scalar(r.numerator, 0, 0, 0, r.denominator)

    @classmethod
    def from_coordinates(cls, c0: int, c1: int, c2: int, c3: int,
                         d: int) -> "CycloScalar":
        """(c0 + c1 zeta + c2 zeta^2 + c3 zeta^3) / d from int coordinates
        and a positive int denominator, brought to lowest terms."""
        return _scalar(c0, c1, c2, c3, d)

    def rationals(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """The four rational coordinates c_j / d."""
        d = self.d
        return tuple(Fraction(cj, d) for cj in self.c)

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
        (a0, a1, a2, a3), d = self.c, self.d
        (b0, b1, b2, b3), e = o.c, o.d
        if d == e:
            return _scalar(a0 + b0, a1 + b1, a2 + b2, a3 + b3, d)
        return _scalar(a0 * e + b0 * d, a1 * e + b1 * d,
                       a2 * e + b2 * d, a3 * e + b3 * d, d * e)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "CycloScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        (a0, a1, a2, a3), d = self.c, self.d
        (b0, b1, b2, b3), e = o.c, o.d
        if d == e:
            return _scalar(a0 - b0, a1 - b1, a2 - b2, a3 - b3, d)
        return _scalar(a0 * e - b0 * d, a1 * e - b1 * d,
                       a2 * e - b2 * d, a3 * e - b3 * d, d * e)

    def __rsub__(self, other: ScalarLike) -> "CycloScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "CycloScalar":
        a = self.c
        return _scalar(-a[0], -a[1], -a[2], -a[3], self.d)

    def __mul__(self, other: ScalarLike) -> "CycloScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.c, o.c
        d = self.d * o.d
        # rational fast paths carry most of the catalog workload
        if not (a[1] or a[2] or a[3]):
            r = a[0]
            return _scalar(r * b[0], r * b[1], r * b[2], r * b[3], d)
        if not (b[1] or b[2] or b[3]):
            r = b[0]
            return _scalar(a[0] * r, a[1] * r, a[2] * r, a[3] * r, d)
        return _scalar(*_times(a, b), d)

    __rmul__ = __mul__

    def galois(self, k: int) -> "CycloScalar":
        """The automorphism zeta -> zeta^k for odd k."""
        if k % 2 == 0:
            raise ValueError("zeta -> zeta^k is an automorphism only for odd k")
        # a signed permutation of the c's keeps the form lowest
        return _scalar(*_galois(self.c, k), self.d)

    def conj(self) -> "CycloScalar":
        """Complex conjugation, zeta -> zeta^7 = -zeta^3."""
        a = self.c
        return _scalar(a[0], -a[3], -a[2], -a[1], self.d)

    def inverse(self) -> "CycloScalar":
        # multiply the remaining Galois conjugates of the numerator a; the
        # full product is the integer norm n, so 1/(a/d) = d * cof / n
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(zeta8)")
        a, d = self.c, self.d
        if self.is_rational():
            n = a[0]
            return _scalar(-d if n < 0 else d, 0, 0, 0, abs(n))
        cof = _times(_times(_galois(a, 3), _galois(a, 5)), _galois(a, 7))
        n, *rest = _times(a, cof)
        assert n and not any(rest)
        if n < 0:
            d, n = -d, -n
        return _scalar(d * cof[0], d * cof[1], d * cof[2], d * cof[3], n)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            # a cheap comparison with 1 and -1, which the printer and
            # add_scaled make often
            a = self.c
            return self.d == 1 and a[0] == other and not (a[1] or a[2] or a[3])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.c == o.c and self.d == o.d

    def __hash__(self):
        return hash((self.c, self.d))

    def __bool__(self) -> bool:
        return self.c != (0, 0, 0, 0)

    def __repr__(self):
        return f"CycloScalar{self.rationals()}"

    def __str__(self):
        return self.pretty()

    def pretty(self) -> str:
        """Render like '3/2', 'i', '-2*i + z8', with zeta spelled z8."""
        d = self.d
        return join_terms(format_term(_ratio(cj, d), name)
                          for cj, name in zip(self.c, (None, "z8", "i", "z8^3")) if cj)


def as_scalar(c: ScalarLike) -> CycloScalar:
    return c if isinstance(c, CycloScalar) else CycloScalar.from_rational(c)


def parse_rational(q: Union[str, int]) -> RationalLike:
    """Fraction(q), with a zero denominator reported as a ValueError like
    any other malformed rational.  Exponent notation is refused: Fraction
    expands '1e9999999' into a ten-million-digit integer.  An int, and a
    whole number spelled as an optional '-' and ASCII digits, come back as
    an int, read without Fraction's pattern match."""
    if type(q) is int:
        return q
    if isinstance(q, str):
        digits = q[1:] if q.startswith("-") else q
        if digits.isdigit() and digits.isascii():
            return int(q)
        if "e" in q.lower():
            raise ValueError(f"exponent notation in {q!r}")
    try:
        return Fraction(q)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {q!r}") from exc


ZERO = _scalar(0, 0, 0, 0, 1)
ONE = _scalar(1, 0, 0, 0, 1)
I = _scalar(0, 0, 1, 0, 1)
ZETA = _scalar(0, 1, 0, 0, 1)
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

# a degree (eps1, eps2) as the 2-bit code 2*eps1 + eps2: the sum of degrees
# is the XOR of codes
DEGREE_OF_CODE = (D00, D01, D10, D11)


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
