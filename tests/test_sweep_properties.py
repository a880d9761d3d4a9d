"""Property tests of the axiom sweeps against oracles built in this file.

The Jacobi sweep sums, on int coordinates over one denominator, the terms
of each rotation orbit that a nested bracket reaches: the rotation (a,b,c)
-> (c,a,b) only reorders the three terms of a jacobiator, and a term
[x,[y,z]] is zero unless [y,z] has a term e_m with (x,m) in the table.  It
calls no jacobiator and makes no scalar product.  The associativity check
sums both bracketings on the same int rows, the antisymmetry check compares
the rows of each pair with its mirror's, the homogeneity check compares
degree codes, and the alpha check sums (-1)^alpha J_g - J_twist in one walk
of g's rows.  Each verdict only tests its packed sums for zero, so the
residuals come from the oracles below: they recompute every triple from
scratch through BilinearMap.__call__ and Vector.scale, or call jacobiator
on each of the n^3 triples or on one triple per rotation orbit, on random
degree-homogeneous tables with coefficients in Q(zeta8) (not only
rationals) and on catalog tables with one structure constant perturbed,
each table under both sign rules.  The alpha identity and the round trip
rebraid(unbraid(g)) == g are the Z2xZ2 <-> super correspondence of
Scheunert, "Generalized Lie algebras", J. Math. Phys. 20 (1979), and
Rittenberg-Wyler, "Generalized superalgebras", Nucl. Phys. B 139 (1978).
"""

from fractions import Fraction
from functools import cache
from math import lcm

import pytest

from bigla import lie
from bigla.catalog import catalog
from bigla.equivalence import (AlphaCheckResult, SuperLieAlgebraWithInvolution,
                               alpha_failures, jacobiator_alpha_check, rebraid, twist,
                               unbraid)
from bigla.lie import (BiGradedAssocAlgebra, BiGradedLieAlgebra, check_antisymmetry,
                       check_jacobi, check_lie, commutator_lie, jacobiator)
from bigla.linear import BiGradedSpace, BilinearMap, Vector
from bigla.scalars import (ALL_DEGREES, ONE, CycloScalar, sign_deligne, sign_super,
                           sign_unbraid)

from test_equivalence import identity_holds

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings, example = hypothesis.given, hypothesis.settings, hypothesis.example

SIGNS = (sign_deligne, sign_super)
LIE_NAMES = ("so3", "so12", "qalgebra-lie", "qmat2-lie", "unitary2x2", "odd-pair")

rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
scalars = st.builds(CycloScalar, rationals, rationals, rationals, rationals)
nonzero_scalars = scalars.filter(bool)


@st.composite
def spaces(draw, max_dim=4):
    degrees = draw(st.lists(st.sampled_from(ALL_DEGREES), min_size=1, max_size=max_dim))
    return BiGradedSpace([(f"x{k}", d) for k, d in enumerate(degrees)])


@st.composite
def homogeneous_tables(draw, space, coefficients=scalars):
    """Constants on random basis pairs, each value a combination of the basis
    vectors of degree deg(i) + deg(j) with coefficients drawn from
    coefficients; neither Lie nor associative."""
    n = space.dim
    degrees = space.degrees
    constants = {}
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          unique=True, max_size=n * n))
    for i, j in pairs:
        allowed = [k for k, d in enumerate(degrees) if d == degrees[i] + degrees[j]]
        if allowed:
            coeffs = draw(st.dictionaries(st.sampled_from(allowed), coefficients,
                                          max_size=len(allowed)))
            constants[(i, j)] = Vector(space, coeffs)
    return BilinearMap(space, constants)


@st.composite
def brackets(draw):
    space = draw(spaces())
    return BiGradedLieAlgebra(space, draw(homogeneous_tables(space)), name="random")


def _with_sign(g, sign):
    """g's table under the given sign rule."""
    return BiGradedLieAlgebra(g.space, g.bracket, name=g.name, sign=sign)


def _reference_jacobiator(g, a, b, c):
    sign = g.sign
    degs = g.space.degrees
    e = g.space.basis_vector
    br = g.bracket
    return (br(e(a), br(e(b), e(c))).scale(sign(degs[a], degs[c]))
            + br(e(c), br(e(a), e(b))).scale(sign(degs[c], degs[b]))
            + br(e(b), br(e(c), e(a))).scale(sign(degs[b], degs[a])))


def _triples(n):
    return [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]


def _every_triple(g):
    """The jacobiator of every basis triple, one jacobiator call each, in
    lexicographic order."""
    return {t: jacobiator(g, *t) for t in _triples(g.dim)}


def _orbit_residuals(g):
    """The nonzero jacobiators, one per rotation orbit, keyed by the orbit's
    smallest triple: jacobiator on that triple, kept where it is nonzero.
    The sweeps keep only which orbits fail; this is their residual."""
    out = {}
    for t in _triples(g.dim):
        if t == min(lie._rotations(t)):
            v = jacobiator(g, *t)
            if v:
                out[t] = v
    return out


def _alpha(degs, a, b, c):
    return (degs[a].eps1 * degs[b].eps2 + degs[b].eps1 * degs[c].eps2
            + degs[c].eps1 * degs[a].eps2) % 2


@settings(max_examples=60, deadline=None)
@given(brackets())
def test_jacobi_sweep_matches_the_reference(g):
    """The Jacobi sweep, one int sum per reached rotation orbit, flags
    exactly the triples on which the graded Jacobi identity recomputed per
    triple, the cyclic sum of eps(c, a) [a, [b, c]], fails, under both
    the Z2xZ2 and the super commutation factor (Scheunert, "Generalized Lie
    algebras", J. Math. Phys. 20 (1979); Rittenberg-Wyler, "Generalized
    superalgebras", Nucl. Phys. B 139 (1978))."""
    for h in (_with_sign(g, sign) for sign in SIGNS):
        reference = {t: _reference_jacobiator(h, *t) for t in _triples(h.dim)}
        assert _every_triple(h) == reference, h.sign.__name__
        assert check_jacobi(h) == [t for t, v in reference.items() if v]


@settings(max_examples=60, deadline=None)
@given(brackets())
def test_jacobiator_is_invariant_under_rotation(g):
    """J(c,a,b) = J(a,b,c) on every homogeneous table, Lie or not, under both
    sign rules: the rotation permutes the three terms of the cyclic sum.
    The Jacobi sweep relies on it to sum one residual per orbit."""
    for h in (_with_sign(g, sign) for sign in SIGNS):
        for a, b, c in _triples(h.dim):
            assert jacobiator(h, c, a, b) == jacobiator(h, a, b, c), \
                (h.sign.__name__, (a, b, c))


def _reached_orbits(g):
    """The rotation orbits, by their smallest triple, with a rotation
    (x,y,z) whose [y,z] has a term e_m with (x,m) in the table, found by
    visiting every triple."""
    table = g.bracket.constants
    reached = set()
    for x, y, z in _triples(g.dim):
        inner = table.get((y, z))
        if inner is not None and any((x, m) in table for m in inner):
            reached.add(min((x, y, z), (y, z, x), (z, x, y)))
    return reached


@pytest.mark.parametrize("name", LIE_NAMES)
def test_sweep_makes_no_jacobiator_call_and_no_scalar_arithmetic(monkeypatch, name):
    """The Lie verdicts on a catalog Lie table and on its twist, and the
    alpha walk, read int rows and degree codes: they call neither
    jacobiator nor any CycloScalar product or sum, and build no vector and
    no scalar where every residual is zero.  Both twists, twist and
    rebraid, copy each value kept or negated: no product, no Vector.scale
    and no vector built through its constructor."""
    g = catalog()[name][1]()
    calls = []

    def counted(op):
        def run(*args):
            calls.append(op)
            return op(*args)
        return run

    monkeypatch.setattr(lie, "jacobiator", counted(jacobiator))
    for op in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__"):
        monkeypatch.setattr(CycloScalar, op, counted(getattr(CycloScalar, op)))
    monkeypatch.setattr(CycloScalar, "from_coordinates",
                        counted(CycloScalar.from_coordinates))
    monkeypatch.setattr(Vector, "__init__", counted(Vector.__init__))
    monkeypatch.setattr(Vector, "scale", counted(Vector.scale))
    for table in (g, twist(g)):
        assert check_lie(table) == {"homogeneity": [], "antisymmetry": [],
                                    "jacobi": []}, table.sign.__name__
    assert alpha_failures(g) == []
    assert rebraid(unbraid(g)).bracket.constants == g.bracket.constants
    assert calls == []


@pytest.mark.parametrize("name", LIE_NAMES)
def test_each_verdict_packs_its_table_once(monkeypatch, name):
    """check_lie, unbraid and the super check each pack the one table they
    judge once: its verdicts, under either sign rule, share the int rows
    kept on the map."""
    fresh = catalog()[name][1]
    s = unbraid(fresh())
    packed = []
    pack = lie._pack
    monkeypatch.setattr(lie, "_pack", lambda table: packed.append(table) or pack(table))
    for run, table in ((check_lie, fresh()), (unbraid, fresh()),
                       (SuperLieAlgebraWithInvolution.check, s)):
        packed.clear()
        run(table)
        assert len(packed) == 1, run.__name__


@settings(max_examples=60, deadline=None)
@given(brackets())
def test_residual_orbits_are_reached(g):
    """The sweep fails exactly the orbits whose jacobiator is nonzero, and
    each has a rotation (x,y,z) whose [y,z] has a term e_m with (x,m) in
    the table: the sweep's walk misses no orbit that holds a nonzero
    term."""
    for h in (_with_sign(g, sign) for sign in SIGNS):
        orbits = {min(lie._rotations(t)) for t in check_jacobi(h)}
        assert orbits == set(_orbit_residuals(h)), h.sign.__name__
        assert orbits <= _reached_orbits(h), h.sign.__name__


def alpha_sweep(g):
    """The two-sweep alpha check, the oracle of alpha_failures: the orbit
    residuals of g and of its twist, and per triple where either is
    nonzero, in lexicographic order, the alpha sign and both residuals.  On
    every other triple both jacobiators vanish and the identity holds.
    alpha and both jacobiators are invariant under the rotation (a,b,c) ->
    (c,a,b), so the three triples of an orbit share one result."""
    bi = _orbit_residuals(g)
    sup = _orbit_residuals(twist(g))
    zero = g.space.zero()
    degs = g.space.degrees
    out = {}
    for t in bi.keys() | sup.keys():
        result = AlphaCheckResult(-1 if _alpha(degs, *t) else 1, bi.get(t, zero),
                                  sup.get(t, zero))
        for r in lie._rotations(t):
            out[r] = result
    return dict(sorted(out.items()))


def _sweep_failures(sweep):
    return [t for t, r in sweep.items() if not identity_holds(r)]


@settings(max_examples=40, deadline=None)
@given(brackets())
def test_alpha_sweep_matches_the_per_triple_check(g):
    """The two-sweep oracle holds the per-triple check on exactly the
    triples where a jacobiator of g or of its twist is nonzero; on the rest
    both vanish. On every homogeneous table, Lie or not, the unbraiding
    twist multiplies each jacobiator by (-1)^alpha, so the one walk finds no
    failure: the Z2xZ2 <-> super correspondence of Rittenberg-Wyler,
    "Generalized superalgebras", Nucl. Phys. B 139 (1978), and Scheunert,
    "Generalized Lie algebras", J. Math. Phys. 20 (1979)."""
    sweep = alpha_sweep(g)
    nonzero = []
    for t in _triples(g.dim):
        single = jacobiator_alpha_check(g, *t)
        if single.residual_bi or single.residual_super:
            nonzero.append(t)
            assert sweep[t] == single, t
        # a homogeneous table satisfies the alpha identity, Lie or not
        assert identity_holds(single), t
    assert list(sweep) == nonzero
    assert alpha_failures(g) == _sweep_failures(sweep) == []


@st.composite
def any_brackets(draw):
    """Constants on random basis pairs whose values may hold letters of any
    degree, so the twist sign of [x,m] need not match that of [y,z]."""
    space = draw(spaces())
    n = space.dim
    constants = draw(st.dictionaries(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        st.dictionaries(st.integers(0, n - 1), nonzero_scalars, min_size=1, max_size=n)
        .map(lambda coeffs: Vector(space, coeffs)),
        max_size=n * n))
    return BiGradedLieAlgebra(space, BilinearMap(space, constants), name="random")


@settings(max_examples=60, deadline=None)
@given(any_brackets())
def test_alpha_walk_matches_every_triple_on_tables_out_of_degree(g):
    """Once a value leaves its degree, the twist multiplies some nested
    terms by the wrong sign: the one walk fails exactly the triples the
    per-triple check and the two-sweep oracle fail."""
    expected = [t for t in _triples(g.dim)
                if not identity_holds(jacobiator_alpha_check(g, *t))]
    assert alpha_failures(g) == _sweep_failures(alpha_sweep(g)) == expected


@cache
def _catalog_table(name):
    return catalog()[name][1]()


@st.composite
def perturbations(draw):
    """A catalog Lie table and one structure constant to add to it:
    (name, i, j, k, c) adds c e_k to [e_i, e_j] and leaves [e_j, e_i] alone.
    Half the draws keep the table degree-homogeneous."""
    name = draw(st.sampled_from(LIE_NAMES))
    space = _catalog_table(name).space
    labels = space.labels
    i, j = draw(st.sampled_from(labels)), draw(st.sampled_from(labels))
    target = space.degrees[space.index(i)] + space.degrees[space.index(j)]
    homogeneous = [labels[k] for k, d in enumerate(space.degrees) if d == target]
    k = draw(st.sampled_from(homogeneous) if homogeneous and draw(st.booleans())
             else st.sampled_from(labels))
    return name, i, j, k, draw(nonzero_scalars)


def _perturbed(name, i, j, k, c):
    g = _catalog_table(name)
    space = g.space
    pair = (space.index(i), space.index(j))
    constants = {p: g.bracket.pair(*p) for p in g.bracket.constants}
    constants[pair] = g.bracket.pair(*pair) + Vector(space, {space.index(k): c})
    return BiGradedLieAlgebra(space, BilinearMap(space, constants), name=name)


@settings(max_examples=40, deadline=None)
@given(perturbations())
# [x,x] = E11 with sign(x,x) = -1: J(x,x,x) = 3 sign(x,x) [x,[x,x]] = 3x,
# one nested term counted three times
@example(("qmat2-lie", "E12*q1", "E12*q1", "E11", ONE))
def test_sweeps_match_every_triple_on_perturbed_catalog_tables(drawn):
    """On a catalog Lie table with one structure constant changed, the Jacobi
    sweep under both sign rules, the two-sweep oracle and the one alpha walk
    match the per-triple reference over all n^3 triples, residuals included.
    A change out of degree breaks the alpha identity, which needs homogeneous
    brackets (Scheunert, "Generalized Lie algebras", J. Math. Phys. 20
    (1979))."""
    g = _perturbed(*drawn)
    for table in (g, _with_sign(g, sign_super), twist(g)):
        every = _every_triple(table)
        assert check_jacobi(table) == [t for t, v in every.items() if v], \
            table.sign.__name__
    bi = _every_triple(g)
    sup = _every_triple(twist(g))
    degs = g.space.degrees
    failures = [t for t in _triples(g.dim)
                if bi[t] != (-sup[t] if _alpha(degs, *t) else sup[t])]
    sweep = alpha_sweep(g)
    assert alpha_failures(g) == _sweep_failures(sweep) == failures
    assert [(t, r.residual_bi, r.residual_super) for t, r in sweep.items()] == \
        [(t, bi[t], sup[t]) for t in _triples(g.dim) if bi[t] or sup[t]]


def _perturbed_antisymmetric(name, i, j, k, c):
    """_perturbed with the mirror changed to match: [e_j, e_i] gets -s c e_k,
    s = sign(i, j), so the table stays antisymmetric unless i = j with s = 1."""
    g = _perturbed(name, i, j, k, c)
    space = g.space
    a, b = space.index(i), space.index(j)
    if a == b:
        return g
    constants = {p: g.bracket.pair(*p) for p in g.bracket.constants}
    s = g.sign(space.degrees[a], space.degrees[b])
    constants[(b, a)] = g.bracket.pair(b, a) + Vector(space, {space.index(k): -s * c})
    return BiGradedLieAlgebra(space, BilinearMap(space, constants), name=name)


@settings(max_examples=40, deadline=None)
@given(perturbations())
def test_half_walk_matches_every_triple_on_antisymmetric_tables(drawn):
    """A catalog Lie table with one structure constant changed on both
    sides stays antisymmetric and may fail Jacobi: the walk over the orbits
    in even cyclic order, with every permutation of a failing orbit
    reported, fails exactly the triples of the per-triple reference, on the
    table and on its twist under the super rule."""
    g = _perturbed_antisymmetric(*drawn)
    for table in (g, twist(g)):
        if check_antisymmetry(table):
            continue
        every = _every_triple(table)
        assert check_jacobi(table) == [t for t, v in every.items() if v], \
            table.sign.__name__


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_associativity_check_matches_the_reference(data):
    """The associativity check flags exactly the triples with (e_i e_j) e_k !=
    e_i (e_j e_k). Associativity is what makes the eps-commutator of a graded
    algebra a Z2xZ2-graded Lie bracket (Scheunert, "Generalized Lie algebras",
    J. Math. Phys. 20 (1979))."""
    space = data.draw(spaces())
    a = BiGradedAssocAlgebra(space, data.draw(homogeneous_tables(space)))
    e = space.basis_vector
    p = a.product
    expected = [(i, j, k) for i, j, k in _triples(space.dim)
                if p(p(e(i), e(j)), e(k)) != p(e(i), p(e(j), e(k)))]
    assert a.check_associativity() == expected


def _reference_homogeneity(table):
    """Pairs whose value has no common degree or one other than deg(i) +
    deg(j), read from Vector.degree and the BiDegree sum."""
    degs = table.space.degrees
    return [(i, j) for i, j in sorted(table.constants)
            if table.pair(i, j).degree() != degs[i] + degs[j]]


def _reference_antisymmetry(g):
    """Pairs i <= j with [e_i,e_j] != -sign(i,j) [e_j,e_i], compared as
    vectors; a nonzero [e_i,e_i] fails only under sign +1."""
    bad = []
    degs = g.space.degrees
    pair = g.bracket.pair
    for i in range(g.dim):
        for j in range(i, g.dim):
            s = g.sign(degs[i], degs[j])
            if i == j:
                if s == 1 and pair(i, i):
                    bad.append((i, i))
            elif pair(i, j) != pair(j, i).scale(-s):
                bad.append((i, j))
    return bad


@st.composite
def mirrored_brackets(draw):
    """A random table in which each pair i < j keeps its mirror (j,i) as
    -sign(i,j) times its value, drops it, or keeps it with one coordinate of
    one coefficient changed; values may leave their degree."""
    g = draw(st.one_of(brackets(), any_brackets()))
    g = _with_sign(g, draw(st.sampled_from(SIGNS)))
    degs = g.space.degrees
    constants = {pair: g.bracket.pair(*pair) for pair in g.bracket.constants}
    for (i, j), v in sorted(constants.items()):
        if i >= j:
            continue
        mirror = v.scale(-g.sign(degs[i], degs[j]))
        how = draw(st.sampled_from(("mirror", "one side", "off by one")))
        if how == "one side":
            constants.pop((j, i), None)
            continue
        if how == "off by one":
            k = draw(st.sampled_from(sorted(mirror.coeffs)))
            bump = [0, 0, 0, 0]
            bump[draw(st.integers(0, 3))] = 1
            mirror = mirror + Vector(g.space, {k: CycloScalar(*bump)})
        constants[(j, i)] = mirror
    return _with_sign(BiGradedLieAlgebra(g.space, BilinearMap(g.space, constants)),
                      g.sign)


@settings(max_examples=80, deadline=None)
@given(st.one_of(brackets(), any_brackets(), mirrored_brackets(),
                 perturbations().map(lambda drawn: _perturbed(*drawn))))
def test_antisymmetry_and_homogeneity_match_the_vector_reference(g):
    """On int rows and degree codes, the antisymmetry and homogeneity checks
    flag the pairs the Vector comparisons flag, under both sign rules, on
    random tables, on tables with mirrors kept, dropped or off by one
    coordinate, and on perturbed catalog tables."""
    assert g.bracket.check_homogeneity() == _reference_homogeneity(g.bracket)
    for h in (_with_sign(g, sign) for sign in SIGNS):
        assert check_antisymmetry(h) == _reference_antisymmetry(h), h.sign.__name__


@settings(max_examples=60, deadline=None)
@given(st.one_of(brackets(), any_brackets()))
def test_product_homogeneity_matches_the_vector_reference(g):
    """The homogeneity check of associative product tables, homogeneous or
    with values in any degree, against the Vector reference."""
    a = BiGradedAssocAlgebra(g.space, g.bracket)
    assert a.product.check_homogeneity() == _reference_homogeneity(a.product)


def test_catalog_tables_pass_the_int_verdicts_as_the_reference_does():
    for name, (kind, ctor) in catalog().items():
        a = ctor()
        table = a.bracket if kind == "lie" else a.product
        assert table.check_homogeneity() == _reference_homogeneity(table) == [], name
        if kind == "lie":
            for h in (_with_sign(a, sign) for sign in SIGNS):
                assert check_antisymmetry(h) == _reference_antisymmetry(h), \
                    (name, h.sign.__name__)


@st.composite
def lie_algebras(draw, scales=nonzero_scalars):
    """The commutator algebra of a Z2xZ2-graded matrix algebra: indices
    1..m carry random degrees, E_ij has degree d_i + d_j, and each basis
    vector is rescaled by a nonzero scalar drawn from scales, so the
    constants leave the rationals."""
    m = draw(st.integers(1, 3))
    d = draw(st.lists(st.sampled_from(ALL_DEGREES), min_size=m, max_size=m))
    units = [(i, j) for i in range(m) for j in range(m)]
    scale = {u: draw(scales) for u in units}
    space = BiGradedSpace([(f"E{i}{j}", d[i] + d[j]) for i, j in units],
                          name="random-matrix")
    pos = {u: k for k, u in enumerate(units)}
    constants = {}
    for i, j in units:
        for l in range(m):
            c = scale[(i, j)] * scale[(j, l)] * scale[(i, l)].inverse()
            constants[(pos[(i, j)], pos[(j, l)])] = Vector(space, {pos[(i, l)]: c})
    return commutator_lie(BiGradedAssocAlgebra(space, BilinearMap(space, constants),
                                               name="random-matrix"))


large_rationals = st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12),
                            st.integers(1, 10 ** 6))
large_scalars = st.builds(CycloScalar, large_rationals, large_rationals,
                          large_rationals, large_rationals).filter(bool)


@settings(max_examples=20, deadline=None)
@given(lie_algebras(large_scalars), st.data())
def test_int_verdicts_keep_large_constants_exact(g, data):
    """Constants with coordinates and denominators far beyond a machine word
    still pack into one int each without overlap: every packed constant
    unpacks to its coordinates over the common denominator, the shift
    leaves room for every sum a verdict makes, a Lie table passes every
    verdict and the alpha walk, and with one constant changed the Jacobi
    sweep fails exactly the triples whose jacobiator is nonzero."""
    assert check_lie(g) == {"homogeneity": [], "antisymmetry": [], "jacobi": []}
    assert alpha_failures(g) == []
    _assert_packed_exactly(g.bracket)
    space = g.space
    letters = st.integers(0, space.dim - 1)
    pair = data.draw(st.tuples(letters, letters))
    k = data.draw(letters)
    constants = {p: g.bracket.pair(*p) for p in g.bracket.constants}
    constants[pair] = g.bracket.pair(*pair) + Vector(space, {k: data.draw(large_scalars)})
    h = BiGradedLieAlgebra(space, BilinearMap(space, constants))
    _assert_packed_exactly(h.bracket)
    every = {t: v for t, v in _every_triple(h).items() if v}
    assert {r: v for t, v in _orbit_residuals(h).items()
            for r in lie._rotations(t)} == every
    assert check_jacobi(h) == list(every)
    assert check_antisymmetry(h) == _reference_antisymmetry(h)


def _assert_packed_exactly(m):
    """Each packed int of m's rows is its constant's four coordinates over
    the lcm d of the denominators, as balanced digits base R = 2^b, and
    6 s^2 < R / 2 for s the sum of their absolute values: the bound that
    keeps every coordinate of a verdict's sum apart (lie._pack)."""
    b, rows = lie._int_rows(m)
    d = lcm(*(c.d for v in m.constants.values() for c in v.values()))
    s = 0
    for pair, v in m.constants.items():
        unpacked = {}
        for l, p in rows[pair]:
            coords = []
            for _ in range(4):
                r = p % (1 << b)
                if r >= 1 << (b - 1):
                    r -= 1 << b
                coords.append(r)
                p = (p - r) >> b
            assert p == 0, pair
            unpacked[l] = coords
            s += sum(map(abs, coords))
        assert unpacked == {l: [a * (d // c.d) for a in c.c]
                            for l, c in v.items()}, pair
    assert 6 * s * s < 1 << (b - 1)


@settings(max_examples=20, deadline=None)
@given(lie_algebras())
def test_rebraid_undoes_unbraid_on_random_lie_algebras(g):
    """On commutator algebras of random Z2xZ2-graded matrix algebras, unbraid
    gives a valid super Lie algebra with involution and rebraid gives g back:
    the twist is an invertible correspondence between Z2xZ2-graded and super
    Lie algebras (Rittenberg-Wyler, "Generalized superalgebras", Nucl. Phys. B
    139 (1978); Scheunert, "Generalized Lie algebras", J. Math. Phys. 20
    (1979))."""
    s = unbraid(g)
    assert not any(s.check().values())
    back = rebraid(s)
    assert (back.name, back.space.labels, back.space.degrees) == \
        (g.name, g.space.labels, g.space.degrees)
    assert back.bracket.constants == g.bracket.constants


def _broken_mirrors(g):
    """g with one mirror broken, for each pair i < j with a value: [e_j, e_i]
    gets e_l added, e_l a letter of [e_i, e_j], so the table stays
    homogeneous and fails antisymmetry at (i, j) only."""
    for i, j in sorted(g.bracket.constants):
        if i < j:
            constants = {p: g.bracket.pair(*p) for p in g.bracket.constants}
            l = min(g.bracket.constants[(i, j)])
            constants[(j, i)] = g.bracket.pair(j, i) + g.space.basis_vector(l)
            yield (i, j), BiGradedLieAlgebra(g.space, BilinearMap(g.space, constants),
                                             sign=g.sign)


@pytest.mark.parametrize("name", LIE_NAMES)
def test_jacobi_walk_falls_back_on_a_broken_mirror(name):
    """A table whose only defect is one broken mirror is not antisymmetric,
    so J(b,a,c) need not fail with J(a,b,c): check_jacobi keeps the full
    rotation walk and returns exactly the triples of the per-triple
    oracle, on the table and on its twist under the super rule."""
    g = _catalog_table(name)
    half_differs = False
    for h in (g, twist(g)):
        for pair, broken in _broken_mirrors(h):
            assert broken.bracket.check_homogeneity() == []
            assert check_antisymmetry(broken) == [pair]
            expected = [t for t, v in _every_triple(broken).items() if v]
            assert check_jacobi(broken) == expected, (h.sign.__name__, pair)
            half = lie._orbit_sums(broken, lie._jacobi_weights(broken.sign), True)
            half_differs |= half != expected
    # on these tables the half walk would report the wrong triples
    assert half_differs == (name in ("qalgebra-lie", "qmat2-lie", "unitary2x2"))


@pytest.mark.parametrize("name", LIE_NAMES)
def test_jacobi_walk_falls_back_under_a_sign_rule_that_is_not_symmetric(name):
    """J(b,a,c) = -s(a,b) s(a,c) s(b,c) J(a,b,c) needs s(x,y) = s(y,x).
    Under sign_unbraid, which is not symmetric, a catalog table with its
    mirrors rebuilt to pass the antisymmetry check still gets the full
    rotation walk and exactly the triples of the per-triple oracle."""
    g = _catalog_table(name)
    degs = g.space.degrees
    constants = {}
    for i, j in g.bracket.constants:
        s = sign_unbraid(degs[i], degs[j])
        if i < j:
            constants[(i, j)] = g.bracket.pair(i, j)
            constants[(j, i)] = g.bracket.pair(i, j).scale(-s)
        elif i == j and s == -1:
            constants[(i, i)] = g.bracket.pair(i, i)
    h = BiGradedLieAlgebra(g.space, BilinearMap(g.space, constants), sign=sign_unbraid)
    assert check_antisymmetry(h) == []
    expected = [t for t, v in _every_triple(h).items() if v]
    assert check_jacobi(h) == expected
    half = lie._orbit_sums(h, lie._jacobi_weights(h.sign), True)
    # on these tables the half walk would report the wrong triples
    assert (half != expected) == (name in ("qmat2-lie", "unitary2x2"))
