"""One-variable function algebras with a parity-deformed product.

EvenOddPoly holds a polynomial with conjugation-fixed coefficients and a
product that twists the odd-odd term by a sign; ConjSymPoly is the image
of the untwisting isomorphism f -> f_even + i f_odd, where the product is
plain multiplication.  The star square of the coordinate function is the
negative of its pointwise square, which separates the two products at any
nonzero sample point.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

from .errors import DegreeOverflow, NegativePoint
from .scalars import CycloScalar, I, ONE, as_scalar, parse_rational
from .sparse import add_scaled, add_term, format_term, join_terms

DEGREE_BOUND = 64

Coeffs = dict[int, CycloScalar]


def _poly_mul(a: Coeffs, b: Coeffs, twisted: bool = False) -> Coeffs:
    """Product of two coefficient maps; twisted negates every odd x odd
    term."""
    out: Coeffs = {}
    for i, ca in a.items():
        for j, cb in b.items():
            if i + j > DEGREE_BOUND:
                raise DegreeOverflow(
                    f"degree {i + j} above the bound {DEGREE_BOUND}")
            c = ca * cb
            add_term(out, i + j, -c if twisted and i & j & 1 else c)
    return out


def _evaluate(coeffs: Mapping[int, CycloScalar], a: Fraction) -> CycloScalar:
    out = CycloScalar.zero()
    power = Fraction(1)
    for k in range(max(coeffs, default=0) + 1):
        c = coeffs.get(k)
        if c:
            out = out + c * power
        power *= a
    return out


def _monomial(k: int) -> Optional[str]:
    return None if k == 0 else ("x" if k == 1 else f"x^{k}")


class _Poly:
    """Coefficients by power, zeros dropped; a subclass states which
    coefficients it admits (_check) and how it multiplies."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, Union[CycloScalar, Fraction, int]]):
        clean: Coeffs = {}
        for k, c in coeffs.items():
            c = as_scalar(c)
            if not c:
                continue
            self._check(k, c)
            if k < 0:
                raise ValueError("negative powers are not polynomial")
            if k > DEGREE_BOUND:
                raise DegreeOverflow(f"degree {k} above the bound {DEGREE_BOUND}")
            clean[k] = c
        self.coeffs = clean

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.coeffs == other.coeffs

    def evaluate(self, a: Fraction) -> CycloScalar:
        return _evaluate(self.coeffs, a)

    def pretty(self) -> str:
        return join_terms(format_term(self.coeffs[k], _monomial(k))
                          for k in sorted(self.coeffs, reverse=True))

    def __repr__(self):
        return f"{type(self).__name__}<{self.pretty()}>"


class EvenOddPoly(_Poly):
    """Polynomial with conjugation-fixed coefficients, split by power parity."""

    __slots__ = ()

    def _check(self, k: int, c: CycloScalar) -> None:
        if not c.is_conj_fixed():
            raise ValueError(f"coefficient at x^{k} is not conjugation-fixed")

    @classmethod
    def zero(cls) -> "EvenOddPoly":
        return cls({})

    @classmethod
    def one(cls) -> "EvenOddPoly":
        return cls({0: ONE})

    @classmethod
    def variable(cls) -> "EvenOddPoly":
        return cls({1: ONE})

    def even_part(self) -> Coeffs:
        return {k: c for k, c in self.coeffs.items() if k % 2 == 0}

    def odd_part(self) -> Coeffs:
        return {k: c for k, c in self.coeffs.items() if k % 2 == 1}

    def degree(self) -> int:
        return max(self.coeffs, default=0)

    def __add__(self, other: "EvenOddPoly") -> "EvenOddPoly":
        out = dict(self.coeffs)
        add_scaled(out, other.coeffs)
        return EvenOddPoly(out)

    def __sub__(self, other: "EvenOddPoly") -> "EvenOddPoly":
        return self + (-other)

    def __neg__(self) -> "EvenOddPoly":
        return EvenOddPoly({k: -c for k, c in self.coeffs.items()})

    def pointwise_mul(self, other: "EvenOddPoly") -> "EvenOddPoly":
        return EvenOddPoly(_poly_mul(self.coeffs, other.coeffs))


def star_product(f: EvenOddPoly, h: EvenOddPoly) -> EvenOddPoly:
    """(f * h) = (f+ h+ - f- h-) + (f+ h- + f- h+), parities as written."""
    return EvenOddPoly(_poly_mul(f.coeffs, h.coeffs, twisted=True))


class ConjSymPoly(_Poly):
    """Polynomial whose coefficients are conjugation-fixed at even powers
    and conjugation-negated at odd powers; the product is pointwise."""

    __slots__ = ()

    def _check(self, k: int, c: CycloScalar) -> None:
        if c.conj() != (c if k % 2 == 0 else -c):
            raise ValueError(f"coefficient at x^{k} breaks the symmetry")

    def __mul__(self, other: "ConjSymPoly") -> "ConjSymPoly":
        return ConjSymPoly(_poly_mul(self.coeffs, other.coeffs))


def to_complex(f: EvenOddPoly) -> ConjSymPoly:
    """The untwisting isomorphism: keep even coefficients, multiply odd
    coefficients by i.  Star products become pointwise products."""
    out: Coeffs = {}
    for k, c in f.coeffs.items():
        out[k] = c if k % 2 == 0 else I * c
    return ConjSymPoly(out)


def character_at(f: EvenOddPoly, a: Fraction) -> tuple[CycloScalar, str]:
    """Evaluation character of the star algebra at the point a >= 0.

    Returns the value f_even(a) + i f_odd(a) and the residue tag: the
    character at 0 kills the odd part and lands in the fixed subfield,
    every positive point picks up the imaginary summand.
    """
    a = Fraction(a)
    if a < 0:
        raise NegativePoint(f"character points must be >= 0, got {a}")
    return (_evaluate(f.even_part(), a) + I * _evaluate(f.odd_part(), a),
            "R" if a == 0 else "C")


def untwisting_failures(degree: int, trials: int, rng: random.Random) -> int:
    """Draw trials random pairs of degree <= degree; the number of pairs on
    which to_complex fails to turn the star product into the pointwise
    one.  Refused before any draw if the products can pass DEGREE_BOUND."""
    if 2 * degree > DEGREE_BOUND:
        raise DegreeOverflow(f"degree {degree} products reach degree {2 * degree}, "
                             f"above the bound {DEGREE_BOUND}")

    def rand_poly():
        return EvenOddPoly({k: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                            for k in range(degree + 1) if rng.random() < 0.7})

    failures = 0
    for _ in range(trials):
        f, h = rand_poly(), rand_poly()
        if to_complex(star_product(f, h)) != to_complex(f) * to_complex(h):
            failures += 1
    return failures


@dataclass(frozen=True)
class DistinguisherCertificate:
    """Evidence that the star and pointwise products differ as algebras."""

    star_square: EvenOddPoly
    pointwise_square: EvenOddPoly
    samples: list[tuple[Fraction, CycloScalar, CycloScalar]]

    @property
    def separates(self) -> bool:
        return any(s != p for _, s, p in self.samples)


def star_vs_pointwise_distinguisher(n_max: int) -> DistinguisherCertificate:
    """Star-square the coordinate function against its pointwise square and
    evaluate both at 0..n_max.  Any nonzero point separates them."""
    x = EvenOddPoly.variable()
    star_sq = star_product(x, x)
    point_sq = x.pointwise_mul(x)
    samples = []
    for n in range(n_max + 1):
        a = Fraction(n)
        samples.append((a, star_sq.evaluate(a), point_sq.evaluate(a)))
    return DistinguisherCertificate(star_sq, point_sq, samples)


_TERM = re.compile(
    r"(?P<coef>\d+(?:/\d+)?)?\s*(?:(?(coef)\*?)\s*(?P<var>x)(?:\^(?P<pow>\d+))?)?")


def parse_poly(text: str) -> EvenOddPoly:
    """Parse '1 + x', '3/2*x^2 - x', 'x^3' into an EvenOddPoly."""
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial")
    chunks = re.findall(r"[+-]?\s*[^+-]+", s)
    if "".join(chunks).replace(" ", "") != s.replace(" ", ""):
        raise ValueError(f"cannot parse polynomial: {text!r}")
    coeffs: dict[int, Fraction] = {}
    for chunk in chunks:
        chunk = chunk.strip()
        sign = 1
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:].strip()
        m = _TERM.fullmatch(chunk)
        if not m or (m.group("coef") is None and m.group("var") is None):
            raise ValueError(f"cannot parse term {chunk!r} in {text!r}")
        coef = parse_rational(m.group("coef")) if m.group("coef") else Fraction(1)
        power = 0
        if m.group("var"):
            power = int(m.group("pow")) if m.group("pow") else 1
        add_term(coeffs, power, sign * coef)
    return EvenOddPoly(coeffs)
