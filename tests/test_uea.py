"""Enveloping-algebra rewriting, the Hopf structure, and PBW bookkeeping."""

import random
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial

import pytest

from bigla import uea
from bigla.catalog import algebra_B, odd_pair, so3, unitary_example
from bigla.equivalence import unbraid
from bigla.errors import BiglaError, InputNotLie
from bigla.lie import BiGradedLieAlgebra, commutator_lie
from bigla.linear import BilinearMap
from bigla.linalg import Echelon
from bigla.scalars import D00, MINUS_ONE, ONE, ZETA, CycloScalar
from bigla.sparse import add_scaled, add_term
from bigla.uea import (DEGREE_OF_CODE, MAX_TRUNCATION, EnvelopingAlgebra,
                       TensorElement, antipode, counit, delta, delta_slot,
                       delta_word, hopf_failures, normal_form,
                       normal_form_random, pbw_dims, weyl_map)

from test_catalog import catalog_lie
from test_lie import reordered


def _so3_ctx():
    return EnvelopingAlgebra(so3())


def _unitary_ctx():
    return EnvelopingAlgebra(unitary_example())


def _degree_sum(ctx, w):
    """The degree of a word as the BiDegree sum of its letters' degrees,
    the oracle for the 2-bit codes."""
    d = D00
    for k in w:
        d = d + ctx.g.space.degrees[k]
    return d


def _is_normal(ctx, w):
    """w is in PBW order: ctx.violations, the rewriting rule, finds no
    position to rewrite."""
    return next(ctx.violations(w), None) is None


def _random_element(ctx, rng, n_words=3, max_len=3):
    terms = {}
    for _ in range(n_words):
        w = tuple(rng.randrange(ctx.g.dim) for _ in range(rng.randrange(max_len + 1)))
        terms[w] = CycloScalar.from_rational(rng.randrange(-3, 4))
    return ctx.element({w: c for w, c in terms.items() if c})


def test_normal_form_so3_oracle():
    ctx = _so3_ctx()
    out = normal_form(ctx, ctx.word_from_labels(["e2", "e1"]))
    assert out.pretty() == "e1*e2 - e3"
    straight = normal_form(ctx, ctx.word_from_labels(["e1", "e2"]))
    assert straight.pretty() == "e1*e2"
    assert _is_normal(ctx, ctx.word_from_labels(["e1", "e2"]))
    assert not _is_normal(ctx, ctx.word_from_labels(["e2", "e1"]))


def test_normal_form_is_memoized():
    ctx = _unitary_ctx()
    w = (5, 4, 3, 2)
    assert ctx.normal_form(w) is ctx.normal_form(w)


def test_multiplication_is_associative():
    rng = random.Random(7)
    ctx = _unitary_ctx()
    for _ in range(15):
        a, b, c = (_random_element(ctx, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_normal_form_preserves_degree_and_filtration():
    rng = random.Random(11)
    ctx = _unitary_ctx()
    for _ in range(40):
        w = tuple(rng.randrange(ctx.g.dim) for _ in range(rng.randrange(1, 6)))
        d = ctx.word_degree(w)
        for term, c in ctx.normal_form(w).items():
            assert len(term) <= len(w)
            assert ctx.word_degree(term) == d
            assert _is_normal(ctx, term)


def test_exterior_letters_never_repeat():
    ctx = _unitary_ctx()
    x1 = ctx.g.space.index("x1")
    assert ctx.exterior[x1]
    for w in ctx.normal_words_up_to(3):
        seen = set()
        for k in w:
            if ctx.exterior[k]:
                assert k not in seen
                seen.add(k)


def test_reversed_order_is_still_confluent():
    """Reversing the basis reverses the PBW order inside each degree block.
    Any total order gives a confluent rewriting system; the normal-word
    counts cannot depend on the choice."""
    g = unitary_example()
    default = EnvelopingAlgebra(g)
    reversed_ctx = EnvelopingAlgebra(reordered(g, range(g.dim)[::-1]))
    # read back in g's indices, the reversed context's order is another one
    assert default.order != tuple(g.dim - 1 - k for k in reversed_ctx.order)
    assert pbw_dims(default, 3)[0] == pbw_dims(reversed_ctx, 3)[0]
    rng = random.Random(23)
    for _ in range(20):
        w = tuple(rng.randrange(g.dim) for _ in range(rng.randrange(1, 5)))
        got = reversed_ctx.normal_form(w)
        again = normal_form_random(reversed_ctx, w, rng)
        assert got == again


def test_normal_form_random_agrees_with_leftmost():
    rng = random.Random(40)
    ctx = _unitary_ctx()
    for _ in range(60):
        w = tuple(rng.randrange(ctx.g.dim) for _ in range(rng.randrange(1, 6)))
        assert normal_form_random(ctx, w, rng) == ctx.normal_form(w)


def test_rewriting_refuses_a_bracket_that_breaks_jacobi():
    # [e1,e2] = e3 + e2, kept antisymmetric, as in the CLI's broken table
    g = so3()
    table = {pair: g.bracket.pair(*pair) for pair in g.bracket.constants}
    table[(0, 1)] = table[(0, 1)] + g.space.basis_vector(1)
    table[(1, 0)] = table[(1, 0)] - g.space.basis_vector(1)
    ctx = EnvelopingAlgebra(BiGradedLieAlgebra(g.space, BilinearMap(g.space, table),
                                               name="so3"))
    # a normal word is its own normal form and reads no bracket
    assert normal_form(ctx, (0, 1)).coeffs == {(0, 1): ONE}
    for rewrite in (lambda: normal_form(ctx, (1, 0)),
                    lambda: normal_form_random(ctx, (1, 0), random.Random(0))):
        with pytest.raises(InputNotLie, match=r"^so3 fails: jacobi at \[\(0, 1, 2\), "):
            rewrite()
    # the rewriting signs are Deligne's: a super table is refused before any
    # rewriting, where y*x would otherwise become x*y and not -x*y
    with pytest.raises(BiglaError, match="Deligne sign rule"):
        EnvelopingAlgebra(unbraid(odd_pair()).algebra)


def test_letters_are_primitive():
    ctx = _unitary_ctx()
    for k in range(ctx.g.dim):
        x = ctx.element({(k,): ONE})
        left = TensorElement(ctx, 2, {((k,), ()): ONE})
        right = TensorElement(ctx, 2, {((), (k,)): ONE})
        assert delta(x) == left + right


def test_delta_is_multiplicative():
    rng = random.Random(3)
    ctx = _unitary_ctx()
    for _ in range(10):
        a = _random_element(ctx, rng, n_words=2, max_len=2)
        b = _random_element(ctx, rng, n_words=2, max_len=2)
        assert delta(a * b) == delta(a) * delta(b)


def test_coassociativity_and_counit():
    rng = random.Random(5)
    ctx = _unitary_ctx()
    for _ in range(8):
        a = _random_element(ctx, rng, n_words=2, max_len=3)
        t = delta(a)
        assert delta_slot(t, 0) == delta_slot(t, 1)
        # (counit x id) delta = id: collect the empty-first-slot column
        recovered = ctx.element(
            {ws[1]: c for ws, c in t.coeffs.items() if ws[0] == ()})
        assert recovered == a
        assert counit(a) == a.coeffs.get((), 0)


def test_coproduct_is_graded_cocommutative():
    rng = random.Random(17)
    ctx = _unitary_ctx()
    for _ in range(10):
        a = _random_element(ctx, rng, n_words=2, max_len=3)
        t = delta(a)
        assert t.flip() == t


def test_antipode():
    ctx = _so3_ctx()
    e1, e2 = ctx.element({(0,): ONE}), ctx.element({(1,): ONE})
    assert antipode(e1) == -e1
    # S(e1 e2) = S(e2)S(e1) = e2 e1, which normalizes to e1 e2 - e3
    assert antipode(e1 * e2).pretty() == "e1*e2 - e3"
    rng = random.Random(29)
    for ctx in (_so3_ctx(), _unitary_ctx()):
        for _ in range(6):
            a = _random_element(ctx, rng, n_words=2, max_len=3)
            t = delta(a)
            acc = ctx.element({})
            for (u, v), c in t.coeffs.items():
                acc = acc + (antipode(ctx.element({u: ONE}))
                             * ctx.element({v: ONE})).scale(c)
            assert acc == ctx.one().scale(counit(a))


def test_weyl_map():
    ctx = _so3_ctx()
    w = ctx.word_from_labels(["e1", "e2"])
    assert weyl_map(ctx, {w: ONE}).pretty() == "e1*e2 - 1/2*e3"


def test_weyl_map_is_injective_up_to_length_three():
    # images of the 20 symmetric words stay independent in U(so3)
    ctx = _so3_ctx()
    words = ctx.normal_words_up_to(3)
    column = {w: k for k, w in enumerate(words)}
    ech = Echelon()
    kept = 0
    for w in words:
        img = weyl_map(ctx, {w: ONE})
        row = {column[term]: c for term, c in img.coeffs.items()}
        if ech.add_row(row) is not None:
            kept += 1
    assert kept == len(words) == 20


def test_weyl_truncation_bound():
    ctx = _so3_ctx()
    long_word = (0,) * 7
    with pytest.raises(BiglaError, match="^word length 7 above the bound 6$"):
        weyl_map(ctx, {long_word: ONE})


def test_pbw_dims_oracles():
    counted, formula = pbw_dims(_so3_ctx(), 4)
    assert counted == formula == [1, 3, 6, 10, 15]
    b_lie = EnvelopingAlgebra(commutator_lie(algebra_B()))
    counted, formula = pbw_dims(b_lie, 4)
    assert counted == formula == [1, 4, 8, 12, 16]
    counted, formula = pbw_dims(_unitary_ctx(), 3)
    assert counted == formula == [1, 8, 32, 88]
    counted, formula = pbw_dims(EnvelopingAlgebra(odd_pair()), 3)
    assert counted == formula == [1, 2, 1, 0]


def test_pbw_dims_stop_at_the_first_empty_degree(monkeypatch):
    """odd-pair has no polynomial letter and no normal word past degree 2:
    at the largest admitted degree the formula is summed for degrees 0..3
    only, and every later degree is read as 0."""
    sums = []

    def counted(n, k):
        sums.append((n, k))
        return comb(n, k)

    monkeypatch.setattr("bigla.uea.comb", counted)
    n_max = 999995
    counted_words, formula = pbw_dims(EnvelopingAlgebra(odd_pair()), n_max)
    assert counted_words == formula == [1, 2, 1] + [0] * (n_max - 2)
    assert len(sums) < 20


def test_pbw_dims_hold_across_catalog():
    for name, g in catalog_lie().items():
        counted, formula = pbw_dims(EnvelopingAlgebra(g), 3)
        assert counted == formula, name


def test_pbw_factorize_round_trip():
    """U(g) = U(g_0) (x) Lambda(g_1) on the PBW basis: every normal word of
    the unitary algebra is a word in its parity-0 letters times a word of
    distinct parity-1 letters, and the two factors multiply back to it."""
    ctx = _unitary_ctx()
    degs = ctx.g.space.degrees
    for w in ctx.normal_words_up_to(4):
        cut = next((p for p, k in enumerate(w) if degs[k].parity == 1), len(w))
        odd = w[cut:]
        assert all(degs[k].parity == 1 for k in odd) and len(set(odd)) == len(odd)
        assert ctx.element({w[:cut]: ONE}) * ctx.element({odd: ONE}) == \
            ctx.element({w: ONE})


@pytest.mark.parametrize("name", sorted(catalog_lie()))
def test_pbw_order_puts_every_even_letter_first(name):
    """The block order is even-first by construction, in any basis order."""
    g = catalog_lie()[name]
    for h in (g, reordered(g, range(g.dim)[::-1])):
        ctx = EnvelopingAlgebra(h)
        flags = [ctx.exterior[k] for k in ctx.order]
        assert flags == sorted(flags)


@pytest.mark.parametrize("name", sorted(catalog_lie()))
def test_level_built_words_match_the_streaming_enumeration(name):
    """normal_words_up_to(n), walked length by length on the step table, is
    the stream of every raw word of length <= n over ctx.order filtered by
    the rewriting rule's violations, which read no step table: shortest
    first, each length in lexicographic order of ranks, each word with the
    BiDegree sum of its letters' degrees.  Lengths run while dim^m stays
    near 10^5, past MAX_TRUNCATION on the smaller tables, and on the
    reversed basis as well."""
    g = catalog_lie()[name]
    longest = max(m for m in range(1, 20) if g.dim ** m <= 10 ** 5)
    assert longest > MAX_TRUNCATION or g.dim == 8
    for h in (g, reordered(g, range(g.dim)[::-1])):
        ctx = EnvelopingAlgebra(h)
        filtered = [(w, _degree_sum(ctx, w)) for m in range(longest + 1)
                    for w in product(ctx.order, repeat=m) if _is_normal(ctx, w)]
        for n in range(longest + 1):
            assert list(ctx.normal_words_up_to(n).items()) == \
                [(w, d) for w, d in filtered if len(w) <= n], n


@pytest.mark.parametrize("name", sorted(catalog_lie()))
def test_word_degree_codes_match_the_bidegree_sum(name):
    """Each letter's code names its degree, and word_degree, an XOR of
    codes, is the BiDegree sum on random raw words, in or out of PBW order
    and with repeated exterior letters."""
    g = catalog_lie()[name]
    ctx = EnvelopingAlgebra(g)
    assert [DEGREE_OF_CODE[c] for c in ctx.codes] == list(g.space.degrees)
    rng = random.Random(name)
    for _ in range(200):
        w = tuple(rng.randrange(g.dim) for _ in range(rng.randrange(9)))
        assert ctx.word_degree(w) == _degree_sum(ctx, w), w


def test_tensor_koszul_sign():
    ctx = _unitary_ctx()
    x = (ctx.g.space.index("x1"),)
    crossing = TensorElement(ctx, 2, {((), x): ONE}) \
        * TensorElement(ctx, 2, {(x, ()): ONE})
    plain = TensorElement(ctx, 2, {(x, ()): ONE}) \
        * TensorElement(ctx, 2, {((), x): ONE})
    # x1 crosses x1, both of pairing-1 degree, so one product picks up -1
    assert plain == TensorElement(ctx, 2, {(x, x): ONE})
    assert crossing == TensorElement(ctx, 2, {(x, x): -ONE})
    u = (ctx.g.space.index("u1"),)
    even_cross = TensorElement(ctx, 2, {((), x): ONE}) \
        * TensorElement(ctx, 2, {(u, ()): ONE})
    assert even_cross == TensorElement(ctx, 2, {(u, x): ONE})


def test_pretty_wraps_spaced_scalars():
    ctx = _so3_ctx()
    c = ONE - ZETA
    elt = ctx.element({(0,): c})
    assert elt.pretty() == "(1 - z8)*e1"
    assert ctx.element({}).pretty() == "0"
    assert ctx.one().pretty() == "1"
    half = ctx.one().scale(CycloScalar.from_rational(Fraction(1, 2)))
    assert half.pretty() == "1/2"


# brute-force references for the graded signs: each counts, pair by pair,
# the Deligne pairings of the letters that cross (Scheunert, "Generalized
# Lie algebras", J. Math. Phys. 20 (1979))

def _crossings(degs, pairs):
    return ONE if sum(degs[p].pairing(degs[q]) for p, q in pairs) % 2 == 0 \
        else MINUS_ONE


def _unshuffle_reference(ctx, w):
    degs = [ctx.g.space.degrees[k] for k in w]
    m = len(w)
    out = {}
    for mask in range(1 << m):
        left = tuple(w[p] for p in range(m) if mask >> p & 1)
        right = tuple(w[p] for p in range(m) if not mask >> p & 1)
        # a chosen letter q moves left past every unchosen letter p < q
        pairs = [(p, q) for q in range(m) if mask >> q & 1
                 for p in range(q) if not mask >> p & 1]
        add_term(out, (left, right), _crossings(degs, pairs))
    return out


def _antipode_reference(ctx, w):
    degs = [ctx.g.space.degrees[k] for k in w]
    m = len(w)
    sign = _crossings(degs, [(i, j) for i in range(m) for j in range(i + 1, m)])
    if m % 2:
        sign = -sign
    return ctx.element({w[::-1]: sign}).coeffs


def _weyl_reference(ctx, w):
    degs = [ctx.g.space.degrees[k] for k in w]
    m = len(w)
    out = {}
    for perm in permutations(range(m)):
        inversions = [(perm[a], perm[b]) for a in range(m)
                      for b in range(a + 1, m) if perm[a] > perm[b]]
        add_scaled(out, ctx.normal_form(tuple(w[p] for p in perm)),
                   _crossings(degs, inversions) * Fraction(1, factorial(m)))
    return out


@pytest.mark.parametrize("name", sorted(catalog_lie()))
def test_hopf_maps_match_brute_force_signs(name):
    g = catalog_lie()[name]
    ctx = EnvelopingAlgebra(g)
    for w in ctx.normal_words_up_to(3 if g.dim >= 8 else 4):
        assert delta_word(ctx, w).coeffs == _unshuffle_reference(ctx, w), w
        assert antipode(ctx.element({w: ONE})).coeffs \
            == _antipode_reference(ctx, w), w
        assert weyl_map(ctx, {w: ONE}).coeffs == _weyl_reference(ctx, w), w
        # weyl_map reads raw words as Sym(g) does, in any letter order
        assert weyl_map(ctx, {w[::-1]: ONE}).coeffs \
            == _weyl_reference(ctx, w[::-1]), w
    # every raw word of length 2 or 3; one that repeats an exterior letter
    # symmetrizes to 0
    repeats = 0
    for w in (w for m in (2, 3) for w in product(range(g.dim), repeat=m)):
        image = weyl_map(ctx, {w: ONE}).coeffs
        assert image == _weyl_reference(ctx, w), w
        if any(ctx.exterior[k] and w.count(k) > 1 for k in w):
            assert image == {}, w
            repeats += 1
    assert repeats or not any(ctx.exterior)


# one mutation per Hopf axiom: the name patched in bigla.uea, the
# replacement built from the original, and the axioms it must break
def _unsigned_crossing(crossed):
    return lambda ctx, x, u, c: c


def _extra_unit_term(delta_word):
    return lambda ctx, w: delta_word(ctx, w) \
        + TensorElement(ctx, 2, {((), ()): ONE})


def _unsigned_second_slot(delta_slot):
    def mutated(t, slot):
        out = delta_slot(t, slot)
        if slot != 1:
            return out
        return TensorElement(out.ctx, 3, {(a, c, b): x
                                          for (a, b, c), x in out.coeffs.items()})
    return mutated


HOPF_MUTATIONS = {
    "crossing": ("_crossed", _unsigned_crossing,
                 {"cocommutativity", "multiplicativity", "weyl"}),
    "antipode": ("antipode", lambda antipode: lambda a: a, {"antipode"}),
    "weyl": ("weyl_map", lambda weyl: lambda ctx, t: weyl(ctx, t).scale(2),
             {"weyl"}),
    "counit": ("delta_word", _extra_unit_term, {"counit"}),
    "coassociativity": ("delta_slot", _unsigned_second_slot,
                        {"coassociativity"}),
}


@pytest.mark.parametrize("mutation", sorted(HOPF_MUTATIONS))
def test_every_hopf_axiom_can_fail(mutation, monkeypatch):
    """qalgebra-lie has odd letters, so a lost crossing sign shows; so3,
    all even, has none.  The clean sweep lists no failure, and each
    mutation makes its axioms list one."""
    assert set().union(*(b for *_, b in HOPF_MUTATIONS.values())) \
        == set(uea.HOPF_AXIOMS)
    ctx = EnvelopingAlgebra(catalog_lie()["qalgebra-lie"])
    count, clean = hopf_failures(ctx, 3)
    assert count == 25 and not any(clean.values())
    name, mutate, broken = HOPF_MUTATIONS[mutation]
    monkeypatch.setattr(uea, name, mutate(getattr(uea, name)))
    _, fails = hopf_failures(EnvelopingAlgebra(ctx.g), 3)
    assert {axiom for axiom, where in fails.items() if where} >= broken
