"""The deformed function algebra, its untwisting, and the evaluation characters."""

import random
from fractions import Fraction

import pytest

from bigla import deformed
from bigla.deformed import (ConjSymPoly, DEGREE_BOUND, EvenOddPoly, MAX_TRIAL_WORK,
                            character_at, parse_poly, star_product,
                            star_vs_pointwise_distinguisher, to_complex,
                            untwisting_failures)
from bigla.errors import BiglaError
from bigla.scalars import ZERO, CycloScalar, I, ONE, ZETA


def _rand_poly(rng, max_deg=6):
    return EvenOddPoly({k: Fraction(rng.randrange(-4, 5))
                        for k in range(rng.randrange(max_deg + 1) + 1)})


def test_parity_split():
    f = parse_poly("1 + 2x + 3x^2 + x^5")
    assert sorted(f.even_part()) == [0, 2]
    assert sorted(f.odd_part()) == [1, 5]
    assert max(f.coeffs) == 5


def test_star_square_of_x():
    x = EvenOddPoly.variable()
    assert star_product(x, x) == EvenOddPoly({2: -1})
    assert x.pointwise_mul(x) == EvenOddPoly({2: 1})


def test_star_oracle():
    one, x = EvenOddPoly({0: 1}), EvenOddPoly.variable()
    # (1+x)(1-x) would vanish at x=1 pointwise; the twist flips the square
    assert star_product(one + x, one - x) == EvenOddPoly({0: 1, 2: 1})


def test_star_is_associative_and_unital():
    rng = random.Random(101)
    one = EvenOddPoly({0: 1})
    for _ in range(20):
        f, g, h = (_rand_poly(rng) for _ in range(3))
        assert star_product(star_product(f, g), h) == \
            star_product(f, star_product(g, h))
        assert star_product(one, f) == f
        assert star_product(f, one) == f


def test_untwisting_is_an_isomorphism():
    rng = random.Random(103)
    for _ in range(25):
        f, g = _rand_poly(rng), _rand_poly(rng)
        assert to_complex(star_product(f, g)) == to_complex(f) * to_complex(g)
        assert to_complex(f + g) == ConjSymPoly(
            {k: to_complex(f).coeffs.get(k, ZERO)
             + to_complex(g).coeffs.get(k, ZERO)
             for k in set(to_complex(f).coeffs) | set(to_complex(g).coeffs)})
        # evaluating the untwisted polynomial is the evaluation character
        for a in (Fraction(0), Fraction(2)):
            assert to_complex(f).evaluate(a) == character_at(f, a)[0]


def _untwisted(f, h):
    return to_complex(star_product(f, h)) == to_complex(f) * to_complex(h)


def _oracle_failures(degree, trials, rng, multiplicative=_untwisted):
    """The untwisting sweep on the object path: the same draws as
    EvenOddPolys; a pair fails when multiplicative(f, h) is false."""
    def rand_poly():
        return EvenOddPoly({k: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                            for k in range(degree + 1) if rng.random() < 0.7})

    failures = 0
    for _ in range(trials):
        f, h = rand_poly(), rand_poly()
        if not multiplicative(f, h):
            failures += 1
    return failures


def _same_sweep(degree, trials, seed, multiplicative=_untwisted):
    """Run the int sweep and the oracle on one seed; their failure counts,
    after checking that both leave the generator in the same state.  Only
    a broken untwisting makes the sweep draw."""
    fast, slow = random.Random(seed), random.Random(seed)
    got = untwisting_failures(degree, trials, fast)
    want = _oracle_failures(degree, trials, slow, multiplicative)
    assert fast.getstate() == slow.getstate(), (degree, trials, seed)
    return got, want


def test_int_sweep_matches_the_object_path():
    """The four-entry defect table is zero, so the sweep decides every pair
    without a draw: it returns 0 and leaves its generator as it found it,
    while the oracle still draws and finds no failing pair."""
    for degree in range(33):
        trials = min(12, MAX_TRIAL_WORK // (degree + 1))
        for seed in (degree, 1000 + degree):
            fast = random.Random(seed)
            got = untwisting_failures(degree, trials, fast)
            want = _oracle_failures(degree, trials, random.Random(seed))
            assert got == want == 0, (degree, seed)
            assert fast.getstate() == random.Random(seed).getstate(), (degree, seed)
    fast = random.Random(7)
    assert untwisting_failures(0, 500, fast) == _oracle_failures(0, 500, random.Random(7)) == 0
    assert fast.getstate() == random.Random(7).getstate()


# each mutation with the object path that makes the same mistake: the star
# product without its odd x odd sign is the pointwise one; to_complex
# without its factor i on odd powers is the identity
MUTATIONS = {
    "no-odd-sign": ("_TWIST", ((1, 1), (1, 1)),
                    lambda f, h: to_complex(f.pointwise_mul(h))
                    == to_complex(f) * to_complex(h)),
    "no-factor-i": ("_UNTWIST", ((1, 0, 0, 0), (1, 0, 0, 0)),
                    lambda f, h: star_product(f, h) == f.pointwise_mul(h)),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_int_sweep_sees_a_broken_untwisting(mutation, monkeypatch):
    name, value, multiplicative = MUTATIONS[mutation]
    monkeypatch.setattr(deformed, name, value)
    got, want = _same_sweep(8, 200, 8, multiplicative)
    assert got == want and got > 150
    for degree, seed in ((1, 3), (2, 5), (5, 11), (17, 13), (32, 17)):
        got, want = _same_sweep(degree, 10, seed, multiplicative)
        assert got == want, (degree, seed)


def test_characters_are_multiplicative():
    rng = random.Random(107)
    for a in (Fraction(0), Fraction(1), Fraction(5, 2)):
        for _ in range(10):
            f, g = _rand_poly(rng), _rand_poly(rng)
            vf, _ = character_at(f, a)
            vg, _ = character_at(g, a)
            vfg, _ = character_at(star_product(f, g), a)
            assert vfg == vf * vg, a


def test_character_residue_dichotomy():
    f = parse_poly("1 + x")
    value0, tag0 = character_at(f, Fraction(0))
    assert tag0 == "R" and value0 == ONE
    assert value0.is_conj_fixed()
    value1, tag1 = character_at(f, Fraction(1))
    assert tag1 == "C" and value1 == ONE + I
    assert not value1.is_conj_fixed()
    with pytest.raises(BiglaError, match=r"^character points must be >= 0, got -1$"):
        character_at(f, Fraction(-1))


def test_degree_overflow():
    x = EvenOddPoly.variable()
    high = EvenOddPoly({DEGREE_BOUND: 1})
    with pytest.raises(BiglaError, match="^degree 65 above the bound 64$"):
        star_product(high, x)
    with pytest.raises(BiglaError, match="^degree 65 above the bound 64$"):
        high.pointwise_mul(x)


def test_coefficient_symmetry_enforcement():
    with pytest.raises(ValueError):
        EvenOddPoly({0: ZETA})  # zeta is moved by conjugation
    with pytest.raises(ValueError):
        EvenOddPoly({-1: 1})
    fixed = ZETA - ZETA * ZETA * ZETA  # zeta - zeta^3 survives conjugation
    assert EvenOddPoly({1: fixed}).coeffs[1] == fixed
    with pytest.raises(ValueError):
        ConjSymPoly({1: ONE})  # odd coefficients must conjugate to their negative
    with pytest.raises(ValueError):
        ConjSymPoly({0: I})
    with pytest.raises(ValueError, match="negative powers are not polynomial"):
        ConjSymPoly({-2: ONE})
    assert ConjSymPoly({1: I, 0: ONE}).coeffs == {1: I, 0: ONE}


def test_distinguisher():
    cert = star_vs_pointwise_distinguisher()
    assert cert.separates
    assert cert.star_square == EvenOddPoly({2: -1})
    assert cert.pointwise_square == EvenOddPoly({2: 1})
    disagree = [a for a, s, p in cert.samples if s != p]
    assert disagree == [Fraction(1), Fraction(2), Fraction(3)]  # equal only at 0


def test_parse_poly():
    assert parse_poly("3/2*x^2 - x + 1").coeffs == {
        2: CycloScalar.from_rational(Fraction(3, 2)),
        1: CycloScalar.from_rational(-1),
        0: ONE,
    }
    assert parse_poly("2x") == EvenOddPoly({1: 2})
    assert parse_poly("x^3") == EvenOddPoly({3: 1})
    assert parse_poly("x - x") == EvenOddPoly({})
    assert parse_poly("- x") == EvenOddPoly({1: -1})
    for bad in ("", "x^", "y", "1++2", "x*-2", "x^-1", "2**x"):
        with pytest.raises(ValueError):
            parse_poly(bad)


def test_pretty():
    assert parse_poly("3/2*x^2 - x + 1").pretty() == "3/2*x^2 - x + 1"
    assert EvenOddPoly({}).pretty() == "0"
    assert EvenOddPoly({2: -1, 0: 1}).pretty() == "-x^2 + 1"
    mixed = ConjSymPoly({1: I})
    assert mixed.pretty() == "i*x"
