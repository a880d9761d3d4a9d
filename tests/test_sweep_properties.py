"""Property tests of the axiom sweeps against oracles built in this file.

The Jacobi sweep computes one jacobiator per rotation orbit and hands it
to the orbit's other triples, which is exact because the rotation
(a,b,c) -> (c,a,b) only reorders the three terms of a jacobiator; the
associativity check reads products off the structure constants.  The
oracles below recompute every triple from scratch through
BilinearMap.__call__ and Vector.scale, on random
degree-homogeneous tables with coefficients in Q(zeta8) (not only
rationals), under both sign rules.  The alpha identity and the round trip
rebraid(unbraid(g)) == g are the Z2xZ2 <-> super correspondence of
Scheunert, "Generalized Lie algebras", J. Math. Phys. 20 (1979), and
Rittenberg-Wyler, "Generalized superalgebras", Nucl. Phys. B 139 (1978).
"""

from fractions import Fraction

import pytest

from bigla import lie
from bigla.catalog import catalog
from bigla.equivalence import alpha_sweep, jacobiator_alpha_check, rebraid, unbraid
from bigla.lie import (BiGradedAssocAlgebra, BiGradedLieAlgebra, check_jacobi,
                       commutator_lie, jacobiator, jacobiators)
from bigla.linear import BiGradedSpace, BilinearMap, Vector
from bigla.scalars import ALL_DEGREES, CycloScalar, sign_deligne, sign_super

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

SIGNS = (sign_deligne, sign_super)

rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
scalars = st.builds(CycloScalar, rationals, rationals, rationals, rationals)
nonzero_scalars = scalars.filter(bool)


@st.composite
def spaces(draw, max_dim=4):
    degrees = draw(st.lists(st.sampled_from(ALL_DEGREES), min_size=1, max_size=max_dim))
    return BiGradedSpace([(f"x{k}", d) for k, d in enumerate(degrees)])


@st.composite
def homogeneous_tables(draw, space):
    """Constants on random basis pairs, each value a combination of the basis
    vectors of degree deg(i) + deg(j); neither Lie nor associative."""
    n = space.dim
    degrees = space.degrees
    constants = {}
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          unique=True, max_size=n * n))
    for i, j in pairs:
        allowed = space.component(degrees[i] + degrees[j])
        if allowed:
            coeffs = draw(st.dictionaries(st.sampled_from(allowed), scalars,
                                          max_size=len(allowed)))
            constants[(i, j)] = Vector(space, coeffs)
    return BilinearMap(space, constants)


@st.composite
def brackets(draw):
    space = draw(spaces())
    return BiGradedLieAlgebra(space, draw(homogeneous_tables(space)), name="random")


def _reference_jacobiator(g, a, b, c, sign):
    degs = g.space.degrees
    e = g.space.basis_vector
    br = g.bracket
    return (br(e(a), br(e(b), e(c))).scale(sign(degs[a], degs[c]))
            + br(e(c), br(e(a), e(b))).scale(sign(degs[c], degs[b]))
            + br(e(b), br(e(c), e(a))).scale(sign(degs[b], degs[a])))


def _triples(n):
    return [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]


@settings(max_examples=60, deadline=None)
@given(brackets())
def test_jacobi_sweep_matches_the_reference(g):
    """The Jacobi sweep, one jacobiator per rotation orbit reused by the
    orbit's other triples, matches the graded Jacobi identity recomputed per
    triple, the cyclic sum of eps(c, a) [a, [b, c]], under both
    the Z2xZ2 and the super commutation factor (Scheunert, "Generalized Lie
    algebras", J. Math. Phys. 20 (1979); Rittenberg-Wyler, "Generalized
    superalgebras", Nucl. Phys. B 139 (1978))."""
    for sign in SIGNS:
        reference = {t: _reference_jacobiator(g, *t, sign) for t in _triples(g.dim)}
        swept = list(jacobiators(g, sign))
        assert [t for t, _ in swept] == list(reference)
        for t, residual in swept:
            assert residual == reference[t], (sign.__name__, t)
            assert jacobiator(g, *t, sign) == reference[t], (sign.__name__, t)
        assert check_jacobi(g, sign) == [t for t, v in reference.items() if v]


@settings(max_examples=60, deadline=None)
@given(brackets())
def test_jacobiator_is_invariant_under_rotation(g):
    """J(c,a,b) = J(a,b,c) on every homogeneous table, Lie or not, under both
    sign rules: the rotation permutes the three terms of the cyclic sum.
    The Jacobi sweep relies on it to compute one jacobiator per orbit."""
    for sign in SIGNS:
        for a, b, c in _triples(g.dim):
            assert jacobiator(g, c, a, b, sign) == jacobiator(g, a, b, c, sign), \
                (sign.__name__, (a, b, c))


@pytest.mark.parametrize("name, calls", [("so3", 11), ("qmat2-lie", 176),
                                         ("unitary2x2", 176)])
def test_jacobi_sweep_calls_jacobiator_once_per_rotation_orbit(monkeypatch, name, calls):
    """One sweep calls jacobiator (n^3 + 2n)/3 times: once per orbit of
    (a,b,c) -> (c,a,b), whose n fixed points are the triples (a,a,a)."""
    g = catalog()[name][1]()
    assert calls == (g.dim ** 3 + 2 * g.dim) // 3
    seen = []

    def counted(*args):
        seen.append(args[1:4])
        return jacobiator(*args)

    monkeypatch.setattr(lie, "jacobiator", counted)
    assert len(list(jacobiators(g))) == g.dim ** 3
    assert len(seen) == len(set(seen)) == calls


@settings(max_examples=40, deadline=None)
@given(brackets())
def test_alpha_sweep_matches_the_per_triple_check(g):
    """The alpha sweep matches the per-triple check, and on every homogeneous
    table, Lie or not, the unbraiding twist multiplies each jacobiator by
    (-1)^alpha: the Z2xZ2 <-> super correspondence of Rittenberg-Wyler,
    "Generalized superalgebras", Nucl. Phys. B 139 (1978), and Scheunert,
    "Generalized Lie algebras", J. Math. Phys. 20 (1979)."""
    sweep = alpha_sweep(g)
    assert list(sweep) == _triples(g.dim)
    for t, r in sweep.items():
        single = jacobiator_alpha_check(g, *t)
        assert (r.alpha_sign, r.residual_bi, r.residual_super) == \
            (single.alpha_sign, single.residual_bi, single.residual_super), t
        # a homogeneous table satisfies the alpha identity, Lie or not
        assert r.identity_holds, t


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
