"""Integer-coordinate Q(zeta8) arithmetic against Fraction coordinates.

bigla.scalars.CycloScalar holds (c0 + c1 z + c2 z^2 + c3 z^3) / d with int
c's and one positive int d in lowest terms.  FractionScalar below is the
earlier implementation, four fractions.Fraction coordinates, kept here as an
independent oracle: two representations of one element of Q(zeta8) must
give the same sums, products, inverses, Galois images, equality, printing
and JSON.  The tests also pin the canonical form the integer coordinates
rely on, so that == is a comparison of tuples and hash agrees with it.
"""

from fractions import Fraction
from math import gcd

import pytest

from bigla.scalars import CycloScalar
from bigla.schema import scalar_from_json, scalar_to_json
from bigla.sparse import format_term, join_terms

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings


class FractionScalar:
    """c0 + c1 z + c2 z^2 + c3 z^3 with four Fraction coordinates."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = tuple(Fraction(q) for q in coeffs)

    def __add__(self, other):
        return FractionScalar(x + y for x, y in zip(self.c, other.c))

    def __sub__(self, other):
        return FractionScalar(x - y for x, y in zip(self.c, other.c))

    def __neg__(self):
        return FractionScalar(-x for x in self.c)

    def __mul__(self, other):
        a0, a1, a2, a3 = self.c
        b0, b1, b2, b3 = other.c
        return FractionScalar((
            a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
            a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
            a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
        ))

    def galois(self, k):
        out = [Fraction(0)] * 4
        for j, cj in enumerate(self.c):
            m = (j * k) % 8
            if m < 4:
                out[m] += cj
            else:
                out[m - 4] -= cj
        return FractionScalar(out)

    def conj(self):
        a = self.c
        return FractionScalar((a[0], -a[3], -a[2], -a[1]))

    def inverse(self):
        cof = self.galois(3) * self.galois(5) * self.galois(7)
        norm = (self * cof).c
        assert norm[0] and not any(norm[1:])
        return cof * FractionScalar((1 / norm[0], 0, 0, 0))

    def __bool__(self):
        return any(self.c)

    def pretty(self):
        return join_terms(format_term(cj, name)
                          for cj, name in zip(self.c, (None, "z8", "i", "z8^3")) if cj)


# mixed denominators, numerators well past a machine word
rationals = st.fractions(min_value=-10 ** 30, max_value=10 ** 30,
                         max_denominator=10 ** 6)
small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
coordinates = st.tuples(*[st.one_of(st.just(Fraction(0)), small, rationals)] * 4)


def assert_canonical(a: CycloScalar):
    assert all(type(cj) is int for cj in a.c) and len(a.c) == 4
    assert type(a.d) is int and a.d > 0
    assert gcd(*a.c, a.d) == 1
    if not any(a.c):
        assert (a.c, a.d) == ((0, 0, 0, 0), 1)


@settings(max_examples=200, deadline=None)
@given(coordinates, coordinates, st.sampled_from([3, 5, 7]))
def test_arithmetic_matches_fraction_coordinates(p, q, k):
    """(c0, c1, c2, c3) / d -> (c0/d, c1/d, c2/d, c3/d) is an isomorphism of
    the two models of Q(zeta8) = Q[x]/(x^4 + 1), so every operation, the
    printer and the JSON commute with it, and every result is canonical."""
    a, b = CycloScalar(*p), CycloScalar(*q)
    fa, fb = FractionScalar(p), FractionScalar(q)
    results = [(a, fa), (b, fb), (a + b, fa + fb), (a - b, fa - fb),
               (-a, -fa), (a * b, fa * fb), (a.galois(k), fa.galois(k)),
               (a.conj(), fa.conj())]
    if fa:
        results.append((a.inverse(), fa.inverse()))
    for got, want in results:
        assert_canonical(got)
        assert got.rationals() == want.c
        assert bool(got) == bool(want)
        assert got.pretty() == want.pretty()
        assert scalar_from_json(scalar_to_json(got), {}) == got
        assert scalar_to_json(got) == {"zeta8": [str(x) for x in want.c]}


@settings(max_examples=200, deadline=None)
@given(coordinates, coordinates)
def test_equality_and_hash_follow_the_field_element(p, q):
    """Lowest terms over a positive denominator is a unique representative
    of each element (Cohen 1993, section 4.2), so equal elements reached
    along different paths have equal coordinates and equal hashes."""
    a, b = CycloScalar(*p), CycloScalar(*q)
    assert (a == b) == (p == q)
    assert (a - b == CycloScalar()) == (p == q)
    c = (a + b) - b
    assert c == a and hash(c) == hash(a) and (c.c, c.d) == (a.c, a.d)
    assert a * b == b * a and hash(a * b) == hash(b * a)


def test_zero_is_unique():
    half = CycloScalar(Fraction(1, 2), Fraction(-3, 4))
    for zero in (CycloScalar(), half - half, half * 0, 0 * half,
                 CycloScalar.from_rational(Fraction(0, 7))):
        assert (zero.c, zero.d) == ((0, 0, 0, 0), 1)
        assert not zero and zero == 0 and hash(zero) == hash(CycloScalar())
