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
from fractions import Fraction
from math import lcm
from typing import Mapping, NamedTuple, Optional, Union

from .errors import BiglaError
from .scalars import CycloScalar, I, ONE, _times, as_scalar, parse_rational
from .sparse import Combination, add_term

DEGREE_BOUND = 64

# most work a random sweep may draw: its trials times the size of one trial,
# here the degree + 1 powers a polynomial draws and in
# hc.commutativity_failures the normal words up to the truncation.  Per unit of
# size a tiny trial costs the most: in process on a shared 2-core host, the
# largest admitted sweep, conv-check on qmat2-lie at truncation 0 with 60000
# trials, took 1.6-2.4 s, against 0.028-0.032 s at truncation 6 with 46 trials.
# The untwisting sweep is bounded the same way, though on a correct untwisting
# its defect table is zero and it makes no draw at all: a trial costs its draws
# only when a defect is nonzero, two polynomials of degree + 1 powers each.
# With a nonzero defect, on the same host, iso-check at degree 0 with 60000
# trials, the costliest sweep it admits, took 0.13-0.15 s, and at degree 32
# with 1818 trials 0.07-0.08 s.
MAX_TRIAL_WORK = 6 * 10 ** 4

Coeffs = dict[int, CycloScalar]

# to_complex's factor on x^k as coordinates over zeta_8, by the parity of
# k: 1 on even powers, i = zeta^2 on odd ones
_UNTWIST = ((1, 0, 0, 0), (0, 0, 1, 0))
# the star product's sign on x^i x^j, by the parities of i and j
_TWIST = ((1, 1), (1, -1))


def _poly_mul(a: Coeffs, b: Coeffs, twisted: bool = False) -> Coeffs:
    """Product of two coefficient maps; twisted negates every odd x odd
    term."""
    out: Coeffs = {}
    for i, ca in a.items():
        for j, cb in b.items():
            if i + j > DEGREE_BOUND:
                raise BiglaError(f"degree {i + j} above the bound {DEGREE_BOUND}")
            c = ca * cb
            add_term(out, i + j, -c if twisted and i & j & 1 else c)
    return out


def _evaluate(coeffs: Mapping[int, CycloScalar], a: Fraction) -> CycloScalar:
    """sum c_k a^k by Horner's rule on int coordinates: for a = p/q and D
    the lcm of the coefficients' denominators, the sum times D q^deg is
    sum_k (D c_k) p^k q^(deg - k), whose coordinates are ints.  Only the
    result is a CycloScalar, built once over the denominator D q^deg."""
    p, q = a.numerator, a.denominator
    d = lcm(*(c.d for c in coeffs.values()))
    deg = max(coeffs, default=0)
    a0 = a1 = a2 = a3 = 0
    qk = 1
    for k in range(deg, -1, -1):
        a0, a1, a2, a3 = a0 * p, a1 * p, a2 * p, a3 * p
        c = coeffs.get(k)
        if c is not None:
            f = d // c.d * qk
            c0, c1, c2, c3 = c.c
            a0, a1, a2, a3 = a0 + c0 * f, a1 + c1 * f, a2 + c2 * f, a3 + c3 * f
        qk *= q
    return CycloScalar.from_coordinates(a0, a1, a2, a3, d * q ** deg)


class _Poly(Combination):
    """Coefficients by power, zeros dropped; a subclass states which
    coefficients it admits (_check) and how it multiplies."""

    __slots__ = ()

    def __init__(self, coeffs: Mapping[int, Union[CycloScalar, Fraction, int]]):
        super().__init__({k: as_scalar(c) for k, c in coeffs.items()})
        for k, c in self.coeffs.items():
            self._check(k, c)
            if k < 0:
                raise ValueError("negative powers are not polynomial")
            if k > DEGREE_BOUND:
                raise BiglaError(f"degree {k} above the bound {DEGREE_BOUND}")

    def evaluate(self, a: Fraction) -> CycloScalar:
        return _evaluate(self.coeffs, a)

    def _order(self, k: int) -> int:
        return -k

    def _name(self, k: int) -> Optional[str]:
        return None if k == 0 else ("x" if k == 1 else f"x^{k}")


class EvenOddPoly(_Poly):
    """Polynomial with conjugation-fixed coefficients, split by power parity."""

    __slots__ = ()

    def _check(self, k: int, c: CycloScalar) -> None:
        if not c.is_conj_fixed():
            raise ValueError(f"coefficient at x^{k} is not conjugation-fixed")

    @classmethod
    def variable(cls) -> "EvenOddPoly":
        return cls({1: ONE})

    def even_part(self) -> Coeffs:
        return {k: c for k, c in self.coeffs.items() if k % 2 == 0}

    def odd_part(self) -> Coeffs:
        return {k: c for k, c in self.coeffs.items() if k % 2 == 1}

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
        raise BiglaError(f"character points must be >= 0, got {a}")
    return (_evaluate(f.even_part(), a) + I * _evaluate(f.odd_part(), a),
            "R" if a == 0 else "C")


def bound_trial_work(trials: int, size: int, unit: str) -> None:
    """Raise BiglaError when trials of size units each come to more
    than MAX_TRIAL_WORK."""
    if trials * size > MAX_TRIAL_WORK:
        raise BiglaError(f"{trials} trials of {size} {unit} come to "
                         f"{trials * size}, above the bound {MAX_TRIAL_WORK}")


def untwisting_failures(degree: int, trials: int, rng: random.Random) -> int:
    """The number of trials random pairs of degree <= degree on which
    to_complex fails to turn the star product into the pointwise one.
    Refused before any draw if the products can pass DEGREE_BOUND or the
    degree + 1 powers drawn per polynomial, over all trials, pass
    MAX_TRIAL_WORK.

    to_complex(f * h) - to_complex(f) to_complex(h) adds defect(i, j) f_i
    h_j to the coordinates of x^(i+j), with defect(i, j) = u(i + j) tau(i,
    j) - u(i) u(j) for to_complex's factor u and the star sign tau.  The
    defect depends only on the parities of i and j, so its four entries
    decide every pair at once: on a correct untwisting all four are 0, no
    drawn pair can fail, and the sweep returns 0 without a draw.  Only a
    nonzero defect draws, and each trial decides on ints in one signed
    pass: the pair fails when some power's coordinates are nonzero.
    star_product and to_complex are the oracle."""
    if 2 * degree > DEGREE_BOUND:
        raise BiglaError(f"degree {degree} products reach degree {2 * degree}, "
                         f"above the bound {DEGREE_BOUND}")
    bound_trial_work(trials, degree + 1, "powers per polynomial")
    defects = []
    for p in (0, 1):
        for q in (0, 1):
            d = [_TWIST[p][q] * c - e for c, e in
                 zip(_UNTWIST[(p + q) & 1], _times(_UNTWIST[p], _UNTWIST[q]))]
            if any(d):
                defects.append((p, q, d))
    if not defects:
        return 0

    def draw() -> tuple[list, list]:
        """(power, coefficient times 6) pairs of a random polynomial, split
        by the parity of the power; 6 is the lcm of every denominator drawn."""
        parts: tuple[list, list] = ([], [])
        for k in range(degree + 1):
            if rng.random() < 0.7:
                parts[k & 1].append((k, rng.randint(-4, 4) * 6 // rng.randint(1, 3)))
        return parts

    failures = 0
    for _ in range(trials):
        f, h = draw(), draw()
        rows: dict[int, list[int]] = {}
        for p, q, d in defects:
            for i, a in f[p]:
                for j, b in h[q]:
                    ab = a * b
                    rows[i + j] = [r + c * ab for r, c in
                                   zip(rows.get(i + j, (0, 0, 0, 0)), d)]
        if any(any(row) for row in rows.values()):
            failures += 1
    return failures


class DistinguisherCertificate(NamedTuple):
    """Evidence that the star and pointwise products differ as algebras."""

    star_square: EvenOddPoly
    pointwise_square: EvenOddPoly
    samples: list[tuple[Fraction, CycloScalar, CycloScalar]]

    @property
    def separates(self) -> bool:
        return any(s != p for _, s, p in self.samples)


# the points the distinguisher evaluates both squares at
DISTINGUISHER_POINTS = (0, 1, 2, 3)


def star_vs_pointwise_distinguisher() -> DistinguisherCertificate:
    """Star-square the coordinate function against its pointwise square and
    evaluate both at DISTINGUISHER_POINTS; any nonzero one separates them."""
    x = EvenOddPoly.variable()
    star_sq = star_product(x, x)
    point_sq = x.pointwise_mul(x)
    samples = []
    for n in DISTINGUISHER_POINTS:
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
