"""Q(zeta8) arithmetic against a second implementation: sympy's QQ[x] modulo
x^4 + 1, the minimal polynomial of zeta = exp(i*pi/4).

CycloScalar(c0, c1, c2, c3) is the residue class of c0 + c1 x + c2 x^2 +
c3 x^3; add, mul, inverse and the Galois automorphisms zeta -> zeta^k (odd k)
must agree with the polynomial ring's sum, reduced product, modular inverse
and the substitution x -> x^k reduced modulo x^4 + 1.
"""

from fractions import Fraction

import pytest

from bigla.scalars import CycloScalar

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
sympy = pytest.importorskip("sympy")
given, settings = hypothesis.given, hypothesis.settings

x = sympy.Symbol("x")
MODULUS = sympy.Poly(x ** 4 + 1, x, domain=sympy.QQ)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=30)
scalars = st.builds(CycloScalar, rationals, rationals, rationals, rationals)


def to_poly(a: CycloScalar):
    return sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator) * x ** i
                          for i, c in enumerate(a.rationals())), x, domain=sympy.QQ)


def from_poly(p) -> CycloScalar:
    r = p.rem(MODULUS)
    return CycloScalar(*(Fraction(int(c.p), int(c.q))
                         for c in (r.coeff_monomial(x ** i) for i in range(4))))


@settings(max_examples=100, deadline=None)
@given(scalars, scalars)
def test_add_and_mul_match_the_polynomial_ring(a, b):
    assert a + b == from_poly(to_poly(a) + to_poly(b))
    assert a * b == from_poly(to_poly(a) * to_poly(b))


@settings(max_examples=100, deadline=None)
@given(scalars)
def test_inverse_matches_the_modular_inverse(a):
    hypothesis.assume(a)
    assert a.inverse() == from_poly(sympy.invert(to_poly(a), MODULUS))


@settings(max_examples=100, deadline=None)
@given(scalars, st.sampled_from([1, 3, 5, 7, 9, -1]))
def test_galois_matches_substitution(a, k):
    image = to_poly(a).compose(sympy.Poly(x ** (k % 8), x, domain=sympy.QQ))
    assert a.galois(k) == from_poly(image)
