"""Field arithmetic in Q(zeta8) and the three sign rules."""

import random
from fractions import Fraction

import pytest

from bigla.scalars import (ALL_DEGREES, CycloScalar, D00, D01, D10, D11, I,
                           ONE, ZERO, ZETA, degree, sign_deligne, sign_super,
                           sign_unbraid)
from bigla.uea import DEGREE_OF_CODE, PAIRING


def _rand_scalar(rng, span=6):
    return CycloScalar(*(Fraction(rng.randint(-span, span), rng.randint(1, 4))
                         for _ in range(4)))


Z3 = ZETA * ZETA * ZETA


def test_zeta_powers():
    assert ZETA * ZETA == I
    assert I * I == -ONE
    assert (I * I) * (I * I) == ONE
    assert ZETA * Z3 == -ONE


def test_ring_axioms_random():
    rng = random.Random(0)
    for _ in range(200):
        a, b, c = (_rand_scalar(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a - a == ZERO


def test_rational_promotion():
    a = ZETA + 1
    assert a - ONE == ZETA
    assert 2 * a == a + a
    assert a * Fraction(1, 2) + a * Fraction(1, 2) == a
    assert CycloScalar.from_rational(3) == 3


def test_conjugation():
    rng = random.Random(1)
    assert ZETA.conj() == -Z3
    assert I.conj() == -I
    for _ in range(100):
        a, b = _rand_scalar(rng), _rand_scalar(rng)
        assert a.conj().conj() == a
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()
        # norm to the fixed field of conjugation is rational in c0 and c2 only
        n = a * a.conj()
        assert n.conj() == n


def test_galois():
    assert ZETA.galois(7) == ZETA.conj()
    rng = random.Random(2)
    for k in (1, 3, 5, 7):
        for _ in range(50):
            a, b = _rand_scalar(rng), _rand_scalar(rng)
            assert (a * b).galois(k) == a.galois(k) * b.galois(k)
    for _ in range(20):
        a = _rand_scalar(rng)
        assert a.galois(1) == a
        assert a.galois(3).galois(3) == a.galois(1)  # 3*3 = 9 = 1 mod 8


def test_inverse():
    rng = random.Random(3)
    count = 0
    while count < 100:
        a = _rand_scalar(rng)
        if not a:
            continue
        assert a * a.inverse() == ONE
        count += 1
    assert CycloScalar.from_rational(Fraction(3, 7)).inverse() == Fraction(7, 3)
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_division_and_pow():
    """Division is a product with the inverse; a power is a repeated product."""
    b = ZETA + 2
    cube = b * b * b
    assert cube * b.inverse() == b * b
    assert cube.inverse() == b.inverse() * b.inverse() * b.inverse()
    assert (b * (ZETA - 1)).inverse() == b.inverse() * (ZETA - 1).inverse()
    assert ZETA.inverse() == ZETA.conj()


def test_conj_fixed_predicate():
    assert ONE.is_conj_fixed()
    assert not I.is_conj_fixed()
    # zeta - zeta^3 = sqrt2 lies in the fixed subfield
    assert (ZETA - Z3).is_conj_fixed()


def test_pretty():
    assert (ZETA + 1).pretty() == "1 + z8"
    assert CycloScalar.from_rational(Fraction(3, 2)).pretty() == "3/2"
    assert I.pretty() == "i"
    assert (-I).pretty() == "-i"
    assert (I * 3).pretty() == "3*i"
    assert Z3.pretty() == "z8^3"
    assert (ONE - ZETA).pretty() == "1 - z8"
    assert ZERO.pretty() == "0"


def test_bidegree():
    assert D10 + D01 == D11
    assert D11 + D11 == D00
    assert D10.parity == 1 and D11.parity == 0
    assert D10.pairing(D10) == 1
    assert D11.pairing(D11) == 0
    assert D10.pairing(D01) == 0
    assert degree(1, 0) == D10
    # bools and floats compare equal to 0 and 1 but are not degree components
    for bad in ((2, 0), (True, 0), (0, False), (1.0, 0)):
        with pytest.raises(ValueError):
            degree(*bad)


def test_sign_rules():
    for d1 in ALL_DEGREES:
        for d2 in ALL_DEGREES:
            sd = sign_deligne(d1, d2)
            ss = sign_super(d1, d2)
            assert sd in (1, -1) and ss in (1, -1)
            assert sd == sign_deligne(d2, d1)
            # the enveloping algebra's table on 2-bit degree codes
            codes = DEGREE_OF_CODE.index(d1), DEGREE_OF_CODE.index(d2)
            assert PAIRING[codes[0]][codes[1]] == d1.pairing(d2)
            assert sd == (-1) ** d1.pairing(d2)
            # the unbraiding signs tie the two rules together
            assert sd == ss * sign_unbraid(d1, d2) * sign_unbraid(d2, d1)
    assert sign_deligne(D10, D10) == -1
    assert sign_deligne(D11, D11) == 1
    assert sign_super(D11, D11) == 1
    assert sign_super(D10, D01) == -1
    assert sign_unbraid(D10, D01) == -1
    assert sign_unbraid(D01, D10) == 1
    assert sign_unbraid(D11, D11) == -1


def test_hash_consistency():
    assert hash(ZETA + 1 - 1) == hash(ZETA)
    s = {ONE, ZETA, ZETA + 0}
    assert len(s) == 2
