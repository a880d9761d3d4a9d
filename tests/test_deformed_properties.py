"""Property test of the evaluation the characters and the distinguisher use.

deformed._evaluate sums c_k a^k by Horner's rule on int coordinates over
one denominator, the lcm of the coefficients' denominators times q^deg for
a = p/q (Cohen, "A Course in Computational Algebraic Number Theory" (1993),
section 4.2), and builds a single scalar.  The oracle below is the loop it
replaced: one Fraction power and one scalar product per term.
"""

from fractions import Fraction

import pytest

from bigla.deformed import EvenOddPoly, _evaluate
from bigla.scalars import ZERO, ZETA, CycloScalar

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings, example = hypothesis.given, hypothesis.settings, hypothesis.example


def oracle_evaluate(coeffs, a):
    out = ZERO
    power = Fraction(1)
    for k in range(max(coeffs, default=0) + 1):
        c = coeffs.get(k)
        if c:
            out = out + c * power
        power *= a
    return out


rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
# conj-fixed: c2 = 0 and c3 = -c1, so r1 (zeta - zeta^3) is irrational
conj_fixed = st.builds(lambda r0, r1: CycloScalar(r0, r1, 0, -r1), rationals, rationals)
polys = st.dictionaries(st.integers(0, 12), conj_fixed, max_size=8).map(
    lambda coeffs: EvenOddPoly(coeffs).coeffs)
points = st.builds(Fraction, st.integers(0, 40), st.integers(1, 9))

ROOT_TWO = ZETA - ZETA * ZETA * ZETA


@settings(max_examples=200, deadline=None)
@given(polys, points)
@example({}, Fraction(0))
@example({}, Fraction(3, 2))
@example({0: ROOT_TWO}, Fraction(0))
@example({1: ROOT_TWO, 4: CycloScalar(Fraction(1, 3))}, Fraction(0))
@example({1: ROOT_TWO, 4: CycloScalar(Fraction(1, 3))}, Fraction(5, 6))
def test_int_horner_matches_the_fraction_power_loop(coeffs, a):
    """The same value, down to its coordinates and its lowest denominator,
    at points p/q >= 0, a = 0 and the empty polynomial included."""
    got, want = _evaluate(coeffs, a), oracle_evaluate(coeffs, a)
    assert (got.c, got.d) == (want.c, want.d)
