"""Property tests of the axiom sweeps against oracles built in this file.

The Jacobi sweep sums, on int coordinates over one denominator, the terms
of each rotation orbit that a nested bracket reaches: the rotation (a,b,c)
-> (c,a,b) only reorders the three terms of a jacobiator, and a term
[x,[y,z]] is zero unless [y,z] has a term e_m with (x,m) in the table.  It
calls no jacobiator and makes no scalar product.  The associativity check
sums both bracketings on the same int rows.  The oracles below recompute every triple from scratch through
BilinearMap.__call__ and Vector.scale, or call jacobiator on each of the
n^3 triples, on random degree-homogeneous tables with coefficients in
Q(zeta8) (not only rationals) and on catalog tables with one structure
constant perturbed, each table under both sign rules.  The alpha identity and the
round trip rebraid(unbraid(g)) == g are the Z2xZ2 <-> super
correspondence of Scheunert, "Generalized Lie algebras", J. Math. Phys. 20
(1979), and Rittenberg-Wyler, "Generalized superalgebras", Nucl. Phys. B
139 (1978).
"""

from fractions import Fraction
from functools import cache

import pytest

from bigla import lie
from bigla.catalog import catalog
from bigla.equivalence import (alpha_sweep, jacobiator_alpha_check, rebraid, twist,
                               unbraid)
from bigla.lie import (BiGradedAssocAlgebra, BiGradedLieAlgebra, check_jacobi,
                       commutator_lie, jacobiator)
from bigla.linear import BiGradedSpace, BilinearMap, Vector
from bigla.scalars import ALL_DEGREES, ONE, CycloScalar, sign_deligne, sign_super

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings, example = hypothesis.given, hypothesis.settings, hypothesis.example

SIGNS = (sign_deligne, sign_super)

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
        if inner is not None and any((x, m) in table for m in inner.coeffs):
            reached.add(min((x, y, z), (y, z, x), (z, x, y)))
    return reached


@pytest.mark.parametrize("name", ["so3", "so12", "qalgebra-lie", "qmat2-lie",
                                  "unitary2x2", "odd-pair"])
def test_sweep_makes_no_jacobiator_call_and_no_scalar_arithmetic(monkeypatch, name):
    """The Jacobi sweep of a catalog Lie table and of its twist sums on the
    int rows: it calls neither jacobiator nor any CycloScalar product or
    sum, and it builds no scalar where every residual is zero."""
    g = catalog()[name][1]()
    tables = (g, twist(g))
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
    for table in tables:
        assert check_jacobi(table) == [], table.sign.__name__
    assert calls == []


@settings(max_examples=60, deadline=None)
@given(brackets())
def test_residual_orbits_are_reached(g):
    """Every orbit the sweep reports nonzero has a rotation (x,y,z) whose
    [y,z] has a term e_m with (x,m) in the table: the sweep's walk misses
    no orbit that holds a nonzero term."""
    for h in (_with_sign(g, sign) for sign in SIGNS):
        assert set(lie._residuals(h)) <= _reached_orbits(h), h.sign.__name__


@settings(max_examples=40, deadline=None)
@given(brackets())
def test_alpha_sweep_matches_the_per_triple_check(g):
    """The alpha sweep holds the per-triple check on exactly the triples
    where a jacobiator of g or of its twist is nonzero; on the rest both
    vanish. On every homogeneous table, Lie or not, the unbraiding twist
    multiplies each jacobiator by (-1)^alpha: the Z2xZ2 <-> super
    correspondence of Rittenberg-Wyler, "Generalized superalgebras", Nucl.
    Phys. B 139 (1978), and Scheunert, "Generalized Lie algebras", J. Math.
    Phys. 20 (1979)."""
    sweep = alpha_sweep(g)
    nonzero = []
    for t in _triples(g.dim):
        single = jacobiator_alpha_check(g, *t)
        if single.residual_bi or single.residual_super:
            nonzero.append(t)
            r = sweep[t]
            assert (r.alpha_sign, r.residual_bi, r.residual_super) == \
                (single.alpha_sign, single.residual_bi, single.residual_super), t
        # a homogeneous table satisfies the alpha identity, Lie or not
        assert single.identity_holds, t
    assert list(sweep) == nonzero


LIE_NAMES = ("so3", "so12", "qalgebra-lie", "qmat2-lie", "unitary2x2", "odd-pair")


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
    constants = dict(g.bracket.constants)
    constants[pair] = g.bracket.pair(*pair) + Vector(space, {space.index(k): c})
    return BiGradedLieAlgebra(space, BilinearMap(space, constants), name=name)


@settings(max_examples=40, deadline=None)
@given(perturbations())
# [x,x] = E11 with sign(x,x) = -1: J(x,x,x) = 3 sign(x,x) [x,[x,x]] = 3x,
# one nested term counted three times
@example(("qmat2-lie", "E12*q1", "E12*q1", "E11", ONE))
def test_sweeps_match_every_triple_on_perturbed_catalog_tables(drawn):
    """On a catalog Lie table with one structure constant changed, the Jacobi
    sweep under both sign rules and the alpha sweep's failures match the
    per-triple reference over all n^3 triples, residuals included. A change
    out of degree breaks the alpha identity, which needs homogeneous
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
    assert [t for t, r in sweep.items() if not r.identity_holds] == failures
    assert [(t, r.residual_bi, r.residual_super) for t, r in sweep.items()] == \
        [(t, bi[t], sup[t]) for t in _triples(g.dim) if bi[t] or sup[t]]


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


@st.composite
def lie_algebras(draw):
    """The commutator algebra of a Z2xZ2-graded matrix algebra: indices
    1..m carry random degrees, E_ij has degree d_i + d_j, and each basis
    vector is rescaled by a random nonzero scalar, so the constants leave
    the rationals."""
    m = draw(st.integers(1, 3))
    d = draw(st.lists(st.sampled_from(ALL_DEGREES), min_size=m, max_size=m))
    units = [(i, j) for i in range(m) for j in range(m)]
    scale = {u: draw(nonzero_scalars) for u in units}
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
