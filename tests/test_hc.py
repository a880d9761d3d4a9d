"""Functionals, convolution, the equivariant basis, and the composition law.

The recorded convolution values live in ``convolution_golden.json`` next to
this file, and the functionals conv-check draws in ``draw_stream_golden.json``.
To record both again, after a deliberate change of values, run

    PYTHONPATH=src python3 tests/test_hc.py
"""

import json
import os
import random
from fractions import Fraction
from math import comb, factorial

import pytest

from bigla import hc
from bigla.catalog import (algebra_B, odd_pair, so3, so3_group_automorphism,
                           so3_group_elements, so3_standard_rep, unitary_example)
from bigla.errors import BiglaError
from bigla.hc import (Functional, bch_product, convolution,
                      convolution_commutes, equivariant_functionals,
                      equivariant_hom_basis, inner_automorphism_check)
from bigla.lie import commutator_lie
from bigla.linalg import Echelon, Matrix
from bigla.linear import Vector
from bigla.scalars import CycloScalar, ONE, ZERO, sign_deligne
from bigla.sparse import add_term
from bigla.uea import EnvelopingAlgebra, UEAElement, delta_word, uea_multiply

from test_catalog import catalog_lie
from test_lie import reordered


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "convolution_golden.json")
DRAW_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "draw_stream_golden.json")


def _ctx(g):
    return EnvelopingAlgebra(g)


def _is_normal(ctx, w):
    """w is in PBW order: ctx.violations, the rewriting rule, finds no
    position to rewrite."""
    return next(ctx.violations(w), None) is None


def _random_functional(ctx, truncation, rng):
    """Small integers on each word, kept within one degree-shift class so
    that shift() is defined."""
    words = list(ctx.normal_words_up_to(truncation))
    target = ctx.word_degree(rng.choice(words))
    values = {}
    for w in words:
        if ctx.word_degree(w) != target:
            continue
        values[w] = CycloScalar.from_rational(rng.randrange(-3, 4))
    return Functional(ctx, truncation, values)


def drawn_functional(ctx, truncation, rng):
    """hc._random_functional over the normal words up to the truncation,
    grouped by degree, as commutativity_failures draws them."""
    words = ctx.normal_words_up_to(truncation)
    by_degree = {}
    for w, d in words.items():
        by_degree.setdefault(d, []).append(w)
    return hc._random_functional(ctx, truncation, list(words.values()),
                                 by_degree, rng)


def mixed_functional(ctx, truncation, rng):
    """Small Q(zeta8) values on a random half of the normal words of every
    degree, so that the shift is usually not defined."""
    return Functional(ctx, truncation, {
        w: CycloScalar(rng.randrange(-3, 4), rng.randrange(-1, 2))
        for w in ctx.normal_words_up_to(truncation) if rng.random() < 0.5})


def apply(phi, a):
    """phi on an element a of U(g), summed over a's normal words.  The
    oracle the equivariance checks read; a word past the truncation has no
    value, so it is refused."""
    if any(len(w) > phi.truncation for w in a.coeffs):
        raise BiglaError(f"element longer than {phi.truncation}")
    return sum((c * phi.coeffs.get(w, ZERO) for w, c in a.coeffs.items()), ZERO)


def stray_functional(ctx, truncation, rng):
    """A drawn functional that is also nonzero on words convolution never
    reads: the first normal words one letter past the truncation, and a
    word out of PBW order, such as (2, 0) on so3."""
    phi = drawn_functional(ctx, truncation, rng)
    stray = [w for w in ctx.normal_words_up_to(truncation + 1)
             if len(w) == truncation + 1][:3]
    stray.append((ctx.order[-1], ctx.order[0]))
    values = dict(phi.coeffs)
    for w in stray:
        values[w] = CycloScalar.from_rational(rng.randrange(1, 4))
    return Functional(ctx, truncation, values)


def expanded_convolution(phi, psi):
    """The convolution by expanding Delta(w) for every normal word w up to
    the truncation and keeping the terms c u (x) v that both functionals
    see, each signed by moving v past u.  The oracle for hc.convolution,
    which reads the two supports instead."""
    ctx = phi.ctx
    values = {}
    for w in ctx.normal_words_up_to(phi.truncation):
        for (u, v), c in delta_word(ctx, w).coeffs.items():
            left = phi.coeffs.get(u)
            right = psi.coeffs.get(v)
            if left is None or right is None:
                continue
            if sign_deligne(ctx.word_degree(v), ctx.word_degree(u)) != 1:
                c = -c
            add_term(values, w, c * left * right)
    return Functional(ctx, phi.truncation, values)


def test_trivial_module():
    # every letter of so3 is even and acts on the ground field by zero
    ctx = _ctx(so3())
    [phi] = equivariant_functionals(ctx, 2)
    for w in ctx.normal_words_up_to(1):
        for u in range(3):
            assert not apply(phi, ctx.element(ctx.normal_form((u,) + w)))


def test_functional_apply_and_truncation():
    ctx = _ctx(so3())
    phi = Functional(ctx, 2, {(): ONE, (0,): CycloScalar(2)})
    e1 = ctx.element({(0,): ONE})
    # a zero oracle would pass every equivariance check in this file
    assert apply(phi, ctx.one() + e1) == 3
    with pytest.raises(BiglaError, match="^element longer than 2$"):
        apply(phi, e1 * e1 * e1)


def test_functional_mismatch_guards():
    ctx = _ctx(so3())
    phi = Functional(ctx, 2, {(): ONE})
    shorter = Functional(ctx, 1, {(): ONE})
    different = "^Functional and Functional over different bases$"
    with pytest.raises(BiglaError, match=different):
        phi + shorter
    other_ctx = _ctx(so3())
    with pytest.raises(BiglaError, match=different):
        phi + Functional(other_ctx, 2, {(): ONE})


def test_convolution_unit():
    """The functional supported on the empty word at 1 is a two-sided unit
    for convolution."""
    rng = random.Random(13)
    ctx = _ctx(unitary_example())
    unit = Functional(ctx, 3, {(): ONE})
    for _ in range(6):
        phi = _random_functional(ctx, 3, rng)
        assert convolution(unit, phi) == phi
        assert convolution(phi, unit) == phi


def test_convolution_commutes_across_catalog():
    rng = random.Random(41)
    for name, g in catalog_lie().items():
        ctx = _ctx(g)
        for _ in range(4):
            phi = _random_functional(ctx, 2, rng)
            psi = _random_functional(ctx, 2, rng)
            if phi.shift() is None or psi.shift() is None:
                continue
            assert convolution_commutes(phi, psi), name


@pytest.mark.parametrize("name", sorted(catalog_lie()))
def test_convolution_matches_the_expanded_coproduct_on_the_catalog(name):
    """Seeded homogeneous and inhomogeneous pairs at truncation 4, on the
    algebra and on its reversed basis, whose PBW order is reversed inside
    each degree block, and pairs with values on words convolution ignores."""
    g = catalog_lie()[name]
    rng = random.Random(name)
    for ctx in (_ctx(g), _ctx(reordered(g, range(g.dim)[::-1]))):
        for draw in (drawn_functional, mixed_functional, stray_functional):
            for _ in range(3):
                phi, psi = draw(ctx, 4, rng), draw(ctx, 4, rng)
                assert convolution(phi, psi) == expanded_convolution(phi, psi)


def test_convolution_commutes_reads_each_support_once(monkeypatch):
    """One convolution_commutes call builds each functional's support
    records once, though it reads both shifts and both orders of the pair:
    every build lays out the letters through hc._layout, and none other
    does."""
    g = catalog_lie()["qmat2-lie"]
    ctx = _ctx(g)
    rng = random.Random(7)
    phi, psi = drawn_functional(ctx, 4, rng), drawn_functional(ctx, 4, rng)
    builds = []
    layout = hc._layout

    def counted(*args):
        builds.append(args)
        return layout(*args)

    monkeypatch.setattr(hc, "_layout", counted)
    assert convolution_commutes(phi, psi)
    assert len(builds) == 2
    assert phi._by_length is not None and psi._by_length is not None


def test_count_keys_are_wide_enough_for_the_truncation():
    """delta_(e1^8) * delta_(e1^9) at truncation 17 is C(17, 8) delta_(e1^17):
    the count 17 needs five bits, so a four-bit field would carry into the
    next rank."""
    ctx = _ctx(so3())
    e1 = ctx.g.space.index("e1")
    phi = Functional(ctx, 17, {(e1,) * 8: ONE})
    psi = Functional(ctx, 17, {(e1,) * 9: ONE})
    assert convolution(phi, psi) == Functional(
        ctx, 17, {(e1,) * 17: CycloScalar.from_rational(comb(17, 8))})


def test_convolution_sums_pairs_without_scalar_arithmetic():
    """The pair loop of a convolution of two drawn qmat2-lie functionals
    runs on ints: no CycloScalar is added or multiplied."""
    ctx = _ctx(catalog_lie()["qmat2-lie"])
    rng = random.Random(7)
    phi, psi = drawn_functional(ctx, 4, rng), drawn_functional(ctx, 4, rng)
    calls = []
    saved = {name: getattr(CycloScalar, name)
             for name in ("__add__", "__radd__", "__mul__", "__rmul__")}

    def counted(name):
        def op(*args):
            calls.append(name)
            return saved[name](*args)
        return op

    try:
        for name in saved:
            setattr(CycloScalar, name, counted(name))
        out = convolution(phi, psi)
    finally:
        for name, op in saved.items():
            setattr(CycloScalar, name, op)
    assert out and out == expanded_convolution(phi, psi)
    assert calls == []


def _drawn_pair(ctx, truncation, rng):
    """Two drawn functionals with one shift each, as commutativity_failures
    keeps them, the second scaled by (1 + zeta)/2 so that the values carry
    a denominator and odd powers of zeta."""
    while True:
        phi = drawn_functional(ctx, truncation, rng)
        psi = drawn_functional(ctx, truncation, rng)
        if phi.shift() is not None and psi.shift() is not None:
            return phi, psi.scale(CycloScalar(Fraction(1, 2), Fraction(1, 2)))


def test_convolution_commutes_builds_no_scalar():
    """Once the support records are built, the verdict on drawn qmat2-lie
    pairs is reached on ints: no CycloScalar is added, negated, multiplied
    or built from coordinates."""
    ctx = _ctx(catalog_lie()["qmat2-lie"])
    rng = random.Random(7)
    pairs = [_drawn_pair(ctx, 4, rng) for _ in range(6)]
    for phi, psi in pairs:
        phi.support_by_length(), psi.support_by_length()
    calls = []
    saved = {name: CycloScalar.__dict__[name]
             for name in ("__add__", "__radd__", "__sub__", "__neg__", "__mul__",
                          "__rmul__", "from_coordinates")}

    def counted(name):
        def op(*args):
            calls.append(name)
            return saved[name](*args)
        return op

    def built(cls, *args):
        calls.append("from_coordinates")
        return saved["from_coordinates"].__func__(cls, *args)

    try:
        for name in saved:
            setattr(CycloScalar, name, counted(name))
        CycloScalar.from_coordinates = classmethod(built)
        verdicts = [convolution_commutes(phi, psi) for phi, psi in pairs]
    finally:
        for name, op in saved.items():
            setattr(CycloScalar, name, op)
    assert calls == []
    assert verdicts == [True] * len(pairs)
    assert all(convolution(phi, psi) for phi, psi in pairs)


def test_convolution_commutes_reads_the_deligne_sign(monkeypatch):
    """With the sign of the two shifts negated, a pair whose convolution is
    nonzero no longer commutes."""
    ctx = _ctx(catalog_lie()["qmat2-lie"])
    rng = random.Random(7)
    phi, psi = _drawn_pair(ctx, 4, rng)
    assert convolution(phi, psi)
    assert convolution_commutes(phi, psi)
    monkeypatch.setattr(hc, "sign_deligne", lambda d1, d2: -sign_deligne(d1, d2))
    assert not convolution_commutes(phi, psi)


@pytest.mark.parametrize("name", sorted(catalog_lie()))
def test_convolution_commutes_agrees_with_the_convolved_functionals(name, monkeypatch):
    """The int verdict is convolution(phi, psi) == s convolution(psi, phi)
    on seeded drawn pairs, on the algebra and on its reversed basis, with
    the Deligne sign s of the shifts and with -s, so that both verdicts
    occur."""
    g = catalog_lie()[name]
    rng = random.Random(name)
    seen = set()
    for ctx in (_ctx(g), _ctx(reordered(g, range(g.dim)[::-1]))):
        for _ in range(4):
            phi, psi = _drawn_pair(ctx, 3, rng)
            lhs, rhs = convolution(phi, psi), convolution(psi, phi)
            for flip in (1, -1):
                monkeypatch.setattr(hc, "sign_deligne",
                                    lambda d1, d2: flip * sign_deligne(d1, d2))
                s = flip * sign_deligne(phi.shift(), psi.shift())
                verdict = convolution_commutes(phi, psi)
                assert verdict == (lhs == (rhs if s == 1 else -rhs))
                seen.add(verdict)
    assert seen == {True, False}


def _nonzero(rows):
    return [{key: c for key, c in row.items() if c} for row in rows]


def two_order_rows(phi, psi, s):
    """The int rows of phi * psi - s psi * phi from the two orders
    accumulated apart, as (s = 0) each convolution sums them, and the
    verdict that compares them key by key, a missing key read as 0.  The
    oracle for the signed pass."""
    _, lhs = hc._accumulate(phi, psi, 0)
    _, rhs = hc._accumulate(psi, phi, 0)
    verdict = all(left.get(key, 0) == s * right.get(key, 0)
                  for left, right in zip(lhs, rhs)
                  for key in left.keys() | right.keys())
    rows = [{key: left.get(key, 0) - s * right.get(key, 0)
             for key in left.keys() | right.keys()}
            for left, right in zip(lhs, rhs)]
    return _nonzero(rows), verdict


@pytest.mark.parametrize("name", sorted(catalog_lie()))
def test_signed_pass_matches_the_two_orders(name, monkeypatch):
    """The one signed pass gives the rows of the two orders accumulated
    apart, and convolution_commutes their verdict, on drawn, mixed and
    stray functionals, on the algebra and on its reversed basis, with the
    Deligne sign s of the shifts and with -s."""
    g = catalog_lie()[name]
    rng = random.Random(name)
    seen = set()
    for ctx in (_ctx(g), _ctx(reordered(g, range(g.dim)[::-1]))):
        for draw in (drawn_functional, mixed_functional, stray_functional):
            for _ in range(3):
                phi, psi = draw(ctx, 4, rng), draw(ctx, 4, rng)
                shifted = phi.shift() is not None and psi.shift() is not None
                s = sign_deligne(phi.shift(), psi.shift()) if shifted else 1
                for flip in (1, -1):
                    rows, verdict = two_order_rows(phi, psi, flip * s)
                    signed = _nonzero(hc._accumulate(phi, psi, flip * s)[1])
                    assert signed == rows
                    assert (not any(signed)) == verdict
                    if shifted:
                        monkeypatch.setattr(
                            hc, "sign_deligne",
                            lambda d1, d2: flip * sign_deligne(d1, d2))
                        assert convolution_commutes(phi, psi) == verdict
                        monkeypatch.undo()
                    seen.add(verdict)
    assert seen == {True, False}


def test_signed_pass_reads_both_crossing_signs():
    """Every pair of a commuting drawn qmat2-lie pair is skipped, yet the
    skip tests each pair's own signs: with one bit of one record's below
    mask flipped, the crossing sign of the pairs reading that bit breaks
    and the verdict becomes False."""
    ctx = _ctx(catalog_lie()["qmat2-lie"])
    rng = random.Random(7)
    phi, psi = _drawn_pair(ctx, 4, rng)
    assert convolution(phi, psi) and convolution_commutes(phi, psi)
    assert not any(hc._accumulate(phi, psi, sign_deligne(phi.shift(),
                                                          psi.shift()))[1])
    n = phi.truncation
    _, left = phi.support_by_length()
    _, right = psi.support_by_length()
    # a record u of phi and a bit of the odd mask of some v of psi that
    # convolves with u: flipping that bit of u's below flips sigma(u, v)
    length, i, bit = next((length, i, v[3] & -v[3])
                          for length, bucket in enumerate(left)
                          for i, u in enumerate(bucket)
                          for fitting in right[:n - length + 1] for v in fitting
                          if v[3] and not u[1] & v[1])
    record = left[length][i]
    left[length][i] = record[:4] + (record[4] ^ bit,) + record[5:]
    assert not convolution_commutes(phi, psi)


def _ignored_words(ctx, phi):
    """Three words of phi's shift that convolution never reads: a normal
    word of two letters or more reversed, out of PBW order; a word in PBW
    order but for one exterior letter x written twice, x x; and a normal
    word one letter past the truncation."""
    n, d = phi.truncation, phi.shift()
    degree = ctx.word_degree
    reversed_word = next(w[::-1] for w in ctx.normal_words_up_to(n)
                         if degree(w) == d and len(set(w)) > 1)
    x = next(k for k in ctx.order if ctx.exterior[k])
    base = next(w for w in ctx.normal_words_up_to(n - 2)
                if degree(w) == d and x not in w)
    squared = tuple(sorted(base + (x, x), key=ctx.rank.__getitem__))
    past = next(w for w in ctx.normal_words_up_to(n + 1)
                if len(w) == n + 1 and degree(w) == d)
    return reversed_word, squared, past


@pytest.mark.parametrize("name", ["qalgebra-lie", "qmat2-lie", "unitary2x2"])
def test_records_drop_the_words_convolution_ignores(name, monkeypatch):
    """A functional also valued on an out-of-order word, on x x with x
    exterior and on a word past the truncation convolves, both ways, to the
    functional without them, and reaches the same verdict, with the Deligne
    sign and with its negation.  The catalog Lie algebras with an exterior
    letter, but odd-pair, whose words stop at length 2."""
    ctx = _ctx(catalog_lie()[name])
    rng = random.Random(name)
    seen = set()
    for _ in range(3):
        phi, psi = _drawn_pair(ctx, 4, rng)
        words = _ignored_words(ctx, phi)
        assert [_is_normal(ctx, w) for w in words] == [False, False, True]
        assert len(words[2]) == phi.truncation + 1
        stray = Functional(ctx, phi.truncation, {
            **phi.coeffs, **{w: CycloScalar.from_rational(2) for w in words}})
        assert stray.shift() == phi.shift()
        assert convolution(stray, psi) == convolution(phi, psi)
        assert convolution(psi, stray) == convolution(psi, phi)
        for flip in (1, -1):
            monkeypatch.setattr(hc, "sign_deligne",
                                lambda d1, d2: flip * sign_deligne(d1, d2))
            verdict = convolution_commutes(phi, psi)
            assert convolution_commutes(stray, psi) == verdict
            seen.add(verdict)
    assert seen == {True, False}


def test_convolution_commutes_needs_one_shift_per_functional():
    ctx = _ctx(unitary_example())
    one = Functional(ctx, 2, {(): ONE})
    mixed = Functional(ctx, 2, {(): ONE, (ctx.g.space.index("x1"),): ONE})
    zero = Functional(ctx, 2, {})
    with pytest.raises(BiglaError,
                       match="^the second functional has 2 shifts, not one$"):
        convolution_commutes(one, mixed)
    with pytest.raises(BiglaError,
                       match="^the first functional has 0 shifts, not one$"):
        convolution_commutes(zero, one)
    assert convolution_commutes(one, one)


def test_shifts_ignore_the_words_convolution_ignores():
    """A value on an out-of-order word leaves the shifts alone: on qmat2-lie
    the functional 1 + e_2 e_0, with e_2 e_0 out of PBW order, convolves like
    the unit, so it commutes with every homogeneous functional."""
    ctx = _ctx(catalog_lie()["qmat2-lie"])
    assert not _is_normal(ctx, (2, 0))
    unit = Functional(ctx, 2, {(): ONE})
    stray = Functional(ctx, 2, {(): ONE, (2, 0): ONE})
    assert stray.shifts() == unit.shifts() == {ctx.word_degree(())}
    psi = drawn_functional(ctx, 2, random.Random(3))
    assert convolution(stray, psi) == convolution(unit, psi) == psi
    assert convolution_commutes(stray, psi) and convolution_commutes(psi, stray)
    assert convolution_commutes(stray, stray)


def convolution_table():
    """Per catalog Lie algebra, the convolution of one seeded pair of
    drawn_functional draws at truncation 3 for every ordered pair of
    occurring word degrees (phi's shift, psi's shift), as label word ->
    coefficient."""
    out = {}
    for name, g in sorted(catalog_lie().items()):
        ctx = _ctx(g)
        rng = random.Random(name)
        degrees = {ctx.word_degree(w) for w in ctx.normal_words_up_to(3)}
        todo = {(a, b) for a in degrees for b in degrees}
        draw = lambda: drawn_functional(ctx, 3, rng)
        rows = {}
        while todo:
            phi, psi = draw(), draw()
            shifts = (phi.shift(), psi.shift())
            if shifts not in todo:
                continue
            todo.remove(shifts)
            key = " ".join(f"{d.eps1}{d.eps2}" for d in shifts)
            rows[key] = {" ".join(g.space.labels[k] for k in w): str(c)
                         for w, c in convolution(phi, psi).coeffs.items()}
        out[name] = rows
    return out


def test_convolution_values_are_frozen():
    with open(GOLDEN) as fh:
        assert convolution_table() == json.load(fh)


def draw_stream_table():
    """Per algebra and seed, the pairs of functionals commutativity_failures
    hands to convolution_commutes in two trials at truncation 4, each as
    label word -> value; convolution_commutes is replaced by a recorder that
    calls it."""
    checked = hc.convolution_commutes
    out = {}
    for name in ("qmat2-lie", "so3"):
        g = catalog_lie()[name]

        def label(f):
            return {" ".join(g.space.labels[k] for k in w): str(c)
                    for w, c in f.coeffs.items()}

        out[name] = {}
        for seed in range(5):
            pairs = []

            def record(phi, psi):
                pairs.append([label(phi), label(psi)])
                return checked(phi, psi)

            hc.convolution_commutes = record
            try:
                failures = hc.commutativity_failures(_ctx(g), 4, 2,
                                                     random.Random(seed))
            finally:
                hc.convolution_commutes = checked
            assert failures == 0
            out[name][str(seed)] = pairs
    return out


def test_conv_check_draws_are_frozen():
    """The same seeds draw the same functionals, in the same order."""
    with open(DRAW_GOLDEN) as fh:
        assert draw_stream_table() == json.load(fh)


def test_shift_additivity():
    rng = random.Random(19)
    ctx = _ctx(unitary_example())
    for _ in range(10):
        phi = _random_functional(ctx, 2, rng)
        psi = _random_functional(ctx, 2, rng)
        sp, ss = phi.shift(), psi.shift()
        if sp is None or ss is None:
            continue
        conv = convolution(phi, psi)
        if conv.coeffs:
            assert conv.shift() == sp + ss


def test_equivariant_basis_is_equivariant():
    g = unitary_example()
    ctx = _ctx(g)
    truncation = 4
    basis = equivariant_functionals(ctx, truncation)
    even = [k for k in range(ctx.g.dim) if g.space.degrees[k].parity == 0]
    for phi in basis:
        for w in ctx.normal_words_up_to(truncation - 1):
            for u in even:
                assert not apply(phi, ctx.element(ctx.normal_form((u,) + w)))


# Every functional of the equivariant basis, as word -> coefficient, with
# the words written as letter labels joined by spaces.
_UNITARY_WORDS = ["", "x1", "x2", "y1", "y2", "x1 x2", "x1 y1", "x1 y2",
                  "x2 y1", "x2 y2", "y1 y2", "x1 x2 y1", "x1 x2 y2", "x1 y1 y2",
                  "x2 y1 y2", "x1 x2 y1 y2"]
_QMAT2_WORDS = ["", "E12*q1", "E21*q1", "E12*q2", "E21*q2",
                "E12*q1 E21*q1", "E12*q1 E12*q2", "E12*q1 E21*q2",
                "E21*q1 E12*q2", "E21*q1 E21*q2", "E12*q2 E21*q2",
                "E12*q1 E21*q1 E12*q2", "E12*q1 E21*q1 E21*q2",
                "E12*q1 E12*q2 E21*q2", "E21*q1 E12*q2 E21*q2",
                "E12*q1 E21*q1 E12*q2 E21*q2"]
EQUIVARIANT_BASES = {
    ("unitary2x2", 4): [{w: "1"} for w in _UNITARY_WORDS],
    ("qmat2-lie", 4): [{w: "1"} for w in _QMAT2_WORDS],
    ("so3", 6): [{"": "1"}],
}


@pytest.mark.parametrize("name,truncation", sorted(EQUIVARIANT_BASES))
def test_equivariant_basis_values(name, truncation):
    g = catalog_lie()[name]
    basis = equivariant_functionals(_ctx(g), truncation)
    got = [{" ".join(g.space.labels[k] for k in w): str(c)
            for w, c in phi.coeffs.items()} for phi in basis]
    assert got == EQUIVARIANT_BASES[(name, truncation)]


def elimination_basis(ctx, truncation):
    """The equivariant functionals into the ground field, by elimination:
    one row phi(normal_form(u w)) = 0 per even letter u and normal word w
    shorter than the truncation, one column per normal word.  Each
    functional is a dict word -> coefficient, in nullspace order."""
    words = list(ctx.normal_words_up_to(truncation))
    col = {w: j for j, w in enumerate(words)}
    even = [k for k in range(ctx.g.dim) if ctx.g.space.degrees[k].parity == 0]
    ech = Echelon()
    for w in words:
        if len(w) < truncation:
            for u in even:
                ech.add_row({col[v]: c for v, c in ctx.normal_form((u,) + w).items()})
    return [{words[j]: c for j, c in sol.items()}
            for sol in ech.nullspace(len(words))]


def closed_form_basis(ctx, truncation):
    return [phi.coeffs for phi in equivariant_functionals(ctx, truncation)]


@pytest.mark.parametrize("name", sorted(catalog_lie()))
def test_closed_form_matches_the_elimination_on_the_catalog(name):
    g = catalog_lie()[name]
    ctx = _ctx(g)
    for n in range(6 if g.dim == 8 else 7):
        assert closed_form_basis(ctx, n) == elimination_basis(ctx, n), n


def test_equivariant_dimension_oracles():
    assert len(equivariant_hom_basis(_ctx(so3()), 2)) == 1
    b_lie = commutator_lie(algebra_B())
    assert len(equivariant_hom_basis(_ctx(b_lie), 4)) == 4
    pair = odd_pair()
    assert len(equivariant_hom_basis(_ctx(pair), 4)) == 4
    g = unitary_example()
    assert len(equivariant_hom_basis(_ctx(g), 4)) == 16


def test_equivariant_dimension_stabilizes():
    pair = odd_pair()
    ctx = _ctx(pair)
    dims = [len(equivariant_hom_basis(ctx, n)) for n in (2, 3, 4)]
    assert dims == [4, 4, 4]


def test_truncation_too_small_guard():
    g = unitary_example()
    with pytest.raises(BiglaError,
                       match="^truncation 2 below the exterior letter count 4$"):
        equivariant_hom_basis(_ctx(g), 2)
    # the raw solver carries no guard
    assert equivariant_functionals(_ctx(g), 0)


# The truncated exp and log series in U(g), by PBW rewriting: the oracle
# for hc.bch_product.  For even x, y, exp(x) exp(y) is group-like, so its
# log is primitive, a combination of single letters (the composition
# theorem for Hopf algebras), and equals the bracket series in g.

def _series_mul(a, b, n):
    """The product of two series, each a dict order -> element of U(g),
    dropping the orders above n."""
    out = {}
    for i, u in a.items():
        for j, v in b.items():
            if i + j <= n:
                add_term(out, i + j, uea_multiply(u, v))
    return out


def _exp_series(ctx, x, n):
    xe = UEAElement(ctx, {(k,): c for k, c in x.coeffs.items()})
    out = {0: ctx.one()}
    power = ctx.one()
    for k in range(1, n + 1):
        power = uea_multiply(power, xe)
        out[k] = power.scale(Fraction(1, factorial(k)))
    return out


def _log_series(ctx, z, n):
    u = {k: v for k, v in z.items() if k > 0}
    out = {}
    power = {0: ctx.one()}
    for k in range(1, n + 1):
        power = _series_mul(power, u, n)
        sign = Fraction((-1) ** (k + 1), k)
        for t, elt in power.items():
            add_term(out, t, elt.scale(sign))
    return out


def series_log(ctx, x, y, n):
    """log(exp(x) exp(y)) to order n in the letter-count grading, as an
    element of U(g)."""
    z = _series_mul(_exp_series(ctx, x, n), _exp_series(ctx, y, n), n)
    return sum(_log_series(ctx, z, n).values(), UEAElement(ctx, {}))


def primitive_vector(a):
    """The vector of g an element of U(g) is, if every word is a single
    letter; None otherwise."""
    if any(len(w) != 1 for w in a.coeffs):
        return None
    return Vector(a.ctx.g.space, {w[0]: c for w, c in a.coeffs.items()})


def even_vector(g, rng):
    even = [k for k in range(g.dim) if g.space.degrees[k].parity == 0]
    return Vector(g.space, {k: CycloScalar.from_rational(rng.randrange(-2, 3))
                            for k in even})


def test_series_product_drops_long_words():
    ctx = _ctx(so3())
    e1 = ctx.element({(0,): ONE})
    assert _series_mul({1: e1}, {1: e1}, 1) == {}
    assert _series_mul({0: ctx.one(), 1: e1}, {1: e1}, 2) == {1: e1, 2: e1 * e1}


def test_primitive_vector_reads_single_letters():
    ctx = _ctx(unitary_example())
    for k in range(ctx.g.dim):
        x = ctx.element({(k,): ONE})
        assert primitive_vector(x) == ctx.g.space.basis_vector(k)
    assert primitive_vector(ctx.element({(0, 1): ONE})) is None


def test_bch_oracle():
    g = so3()
    e1 = g.space.basis_vector(0)
    e2 = g.space.basis_vector(1)
    log = bch_product(g, e1, e2, 2)
    assert log.pretty() == "e1 + e2 + 1/2*e3"
    assert log.coeff(2) == Fraction(1, 2)
    assert primitive_vector(series_log(_ctx(g), e1, e2, 2)) == log
    assert bch_product(g, e1, e2, 0) == g.space.zero()


def test_bch_first_order_is_the_sum():
    rng = random.Random(59)
    g = so3()
    ctx = _ctx(g)
    for _ in range(5):
        x = Vector(g.space, {k: CycloScalar.from_rational(rng.randrange(-2, 3))
                             for k in range(3)})
        y = Vector(g.space, {k: CycloScalar.from_rational(rng.randrange(-2, 3))
                             for k in range(3)})
        assert bch_product(g, x, y, 1) == x + y
        assert primitive_vector(series_log(ctx, x, y, 1)) == x + y


def test_bch_stays_primitive_at_higher_order():
    rng = random.Random(61)
    g = unitary_example()
    ctx = _ctx(g)
    for _ in range(5):
        x, y = even_vector(g, rng), even_vector(g, rng)
        log = primitive_vector(series_log(ctx, x, y, 4))
        assert log is not None
        assert bch_product(g, x, y, 4) == log


def test_bch_input_guards():
    g = unitary_example()
    x1 = g.space.basis_vector(g.space.index("x1"))
    u1 = g.space.basis_vector(g.space.index("u1"))
    with pytest.raises(BiglaError, match="^exponential inputs must be parity-even$"):
        bch_product(g, x1, u1, 2)
    with pytest.raises(BiglaError, match="^order 9 above the bound 6$"):
        bch_product(g, u1, u1, 9)
    other = so3()
    with pytest.raises(BiglaError, match="^vector is not over this algebra's space$"):
        bch_product(g, other.space.basis_vector(0), u1, 2)


def test_inner_automorphism_check():
    rep = so3_standard_rep()
    elements = so3_group_elements()
    target = so3_group_automorphism()
    assert inner_automorphism_check(rep, elements["reflection-diag"], target) == []
    # the quarter turn fixes the first axis, so only e2, e3 move wrongly
    assert inner_automorphism_check(rep, elements["rotation-x"], target) == [1, 2]


@pytest.mark.parametrize("g", [
    Matrix.zero(3),                                  # singular
    Matrix([[2, 0, 0], [0, 1, 0], [0, 0, 1]]),       # invertible, not orthogonal
], ids=["zero", "diag-2-1-1"])
def test_inner_automorphism_check_refuses_a_non_orthogonal_element(g):
    with pytest.raises(BiglaError,
                       match=r"^group element is not orthogonal: g g\^T != 1$"):
        inner_automorphism_check(so3_standard_rep(), g, so3_group_automorphism())


if __name__ == "__main__":
    for path, table in ((GOLDEN, convolution_table),
                        (DRAW_GOLDEN, draw_stream_table)):
        with open(path, "w") as fh:
            json.dump(table(), fh, indent=1, sort_keys=True)
            fh.write("\n")
