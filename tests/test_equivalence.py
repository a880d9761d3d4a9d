"""Unbraiding round trips and the alpha sign identity."""

import random

import pytest

from bigla.catalog import catalog, odd_pair, so3, so12, unitary_example
from bigla.equivalence import (SuperLieAlgebraWithInvolution, alpha_failures,
                               involution_from_bidegree, jacobiator_alpha_check,
                               rebraid, twist, unbraid)
from bigla.errors import BiglaError, InputNotLie
from bigla.lie import BiGradedLieAlgebra, check_lie
from bigla.linear import BilinearMap, LinearMap
from bigla.scalars import D11

from test_catalog import bracket_failures


def identity_holds(r):
    """J_g = (-1)^alpha J_twist on the triple jacobiator_alpha_check read."""
    return r.residual_bi == r.residual_super.scale(r.alpha_sign)


def _lie_entries():
    return [(name, ctor) for name, (kind, ctor) in catalog().items()
            if kind == "lie"]


def test_unbraid_so3_is_so12():
    s = unbraid(so3())
    assert s.algebra.name == "so3~s"
    target = so12()
    for i in range(3):
        for j in range(3):
            assert s.algebra.bracket.pair(i, j).coeffs == \
                target.bracket.pair(i, j).coeffs
    # sigma = (-1)^eps2 fixes e1 and negates the (1,1) pair
    assert s.involution == (1, -1, -1)


def test_unbraid_rejects_non_lie_input():
    g = so3()
    constants = dict(g.bracket.constants)
    constants[(0, 1)] = constants[(0, 1)] + g.space.basis_vector(1)
    broken = BiGradedLieAlgebra(g.space, BilinearMap(g.space, constants))
    with pytest.raises(InputNotLie):
        unbraid(broken)


def test_round_trip_on_catalog():
    # rebraid(unbraid(g)) must reproduce degrees, labels, constants and name
    for name, ctor in _lie_entries():
        g = ctor()
        back = rebraid(unbraid(g))
        assert back.space.labels == g.space.labels, name
        assert back.space.degrees == g.space.degrees, name
        assert back.name == g.name, name
        for i in range(g.dim):
            for j in range(g.dim):
                assert back.bracket.pair(i, j).coeffs == \
                    g.bracket.pair(i, j).coeffs, (name, i, j)


def test_unbraid_output_is_super_lie():
    for name, ctor in _lie_entries():
        s = unbraid(ctor())
        report = s.check()
        assert all(v == [] for v in report.values()), (name, report)
        # the twisted table carries the super rule, so check_lie judges it by that
        assert not any(check_lie(s.algebra).values()), name


def test_super_check_runs_only_the_named_checks():
    s = unbraid(so3())
    assert s.check(["involution"]) == {"involution": []}
    assert s.check(["jacobi", "homogeneity"]) == {"jacobi": [], "homogeneity": []}
    assert set(s.check()) == {"homogeneity", "antisymmetry", "jacobi", "involution"}


def test_involution_must_list_signs():
    s = unbraid(so3())
    for broken in ([1, -1], [1, 2, 1], [1, -1, True]):
        with pytest.raises(ValueError, match="involution must list"):
            SuperLieAlgebraWithInvolution(s.algebra, broken)
    assert SuperLieAlgebraWithInvolution(s.algebra, [1, -1, 1]).involution == (1, -1, 1)
    # the wrapper's check reads the algebra's rule, so a Deligne table is refused
    g = unitary_example()
    with pytest.raises(ValueError, match="super sign rule"):
        SuperLieAlgebraWithInvolution(g, involution_from_bidegree(g))


def test_alpha_identity_on_catalog_triples():
    for name, ctor in _lie_entries():
        g = ctor()
        n = g.dim
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    res = jacobiator_alpha_check(g, a, b, c)
                    assert identity_holds(res), (name, a, b, c)


def test_alpha_sign_value():
    # x1 (1,0), y1 (0,1), x2 (1,0): alpha = 1*1 + 0*0 + 1*0 = 1
    g = unitary_example()
    x1 = g.space.index("x1")
    y1 = g.space.index("y1")
    x2 = g.space.index("x2")
    assert jacobiator_alpha_check(g, x1, y1, x2).alpha_sign == -1
    u1 = g.space.index("u1")
    assert jacobiator_alpha_check(g, u1, u1, u1).alpha_sign == 1


def _random_homogeneous_bracket(space, rng):
    """A degree-homogeneous but otherwise arbitrary table: the identity under
    test needs the values to carry the degree of their arguments, and nothing
    else (Jacobi and antisymmetry both get broken here)."""
    degrees = space.degrees
    n = space.dim
    constants = {}
    for _ in range(rng.randrange(4, 10)):
        i, j = rng.randrange(n), rng.randrange(n)
        d = degrees[i] + degrees[j]
        allowed = [k for k in range(n) if degrees[k] == d]
        if not allowed:
            continue
        v = space.basis_vector(rng.choice(allowed)).scale(rng.randrange(-3, 4))
        if v:
            constants[(i, j)] = constants.get((i, j), space.zero()) + v
    return BiGradedLieAlgebra(space, BilinearMap(space, constants))


def test_alpha_identity_survives_broken_brackets():
    rng = random.Random(20260819)
    base = unitary_example()
    n = base.dim
    broke_jacobi = False
    for trial in range(25):
        g = _random_homogeneous_bracket(base.space, rng)
        broke_jacobi = broke_jacobi or any(check_lie(g).values())
        triples = [(rng.randrange(n), rng.randrange(n), rng.randrange(n))
                   for _ in range(10)]
        for a, b, c in triples:
            assert identity_holds(jacobiator_alpha_check(g, a, b, c)), \
                (trial, a, b, c)
    # sanity: the perturbations really do leave the Lie world
    assert broke_jacobi


def test_alpha_identity_needs_homogeneity():
    """A bracket value in the wrong degree breaks the uniform twist sign;
    this documents why the perturbations above stay homogeneous."""
    g = unitary_example()
    sp = g.space
    x1, x2, y1, u1 = (sp.index(lab) for lab in ("x1", "x2", "y1", "u1"))
    # [x1,x1] = y1 is degree-dishonest: (1,0)+(1,0) = (0,0), not (0,1);
    # the outer letter x2 has eps1 = 1 and sees the wrong twist sign on y1
    crooked = BiGradedLieAlgebra(
        sp, BilinearMap(sp, {(x1, x1): sp.basis_vector(y1),
                             (x2, y1): sp.basis_vector(u1)}))
    assert not identity_holds(jacobiator_alpha_check(crooked, x2, x1, x1))
    assert (x2, x1, x1) in alpha_failures(crooked)


def _failing_triples(g):
    """The triples where the per-triple check fails, visiting all n^3."""
    n = g.dim
    return [(a, b, c) for a in range(n) for b in range(n) for c in range(n)
            if not identity_holds(jacobiator_alpha_check(g, a, b, c))]


def test_alpha_sweep_keeps_the_orbits_only_the_twist_reaches():
    """Two nested terms that cancel in g can add up in its twist once a
    bracket value leaves its degree, so the one walk over g's rows must
    still see the orbit: it weighs each term by its twist sign, not by
    whether g's jacobiator is nonzero."""
    g = unitary_example()
    sp = g.space
    e = sp.basis_vector
    x1, x2, y1, u1, u2 = (sp.index(lab) for lab in ("x1", "x2", "y1", "u1", "u2"))
    # J(x2,x1,x1) = -[x2,[x1,x1]] - [x1,[x1,x2]] = -u1 + u1 in g; in the
    # twist [x2,y1] changes sign and [x1,u2] = -u1 (degree (1,0) expected)
    # does not, and the super signs leave 2 u1
    crooked = BiGradedLieAlgebra(sp, BilinearMap(sp, {
        (x1, x1): e(y1), (x2, y1): e(u1), (x1, x2): e(u2), (x1, u2): -e(u1)}))
    expected = _failing_triples(crooked)
    assert expected == sorted([(x2, x1, x1), (x1, x2, x1), (x1, x1, x2)])
    assert alpha_failures(crooked) == expected
    for t in expected:
        single = jacobiator_alpha_check(crooked, *t)
        assert not single.residual_bi
        assert single.residual_super == e(u1).scale(2)


def test_alpha_sweep_agrees_with_the_per_triple_check():
    # the one walk reads g's rows only; its failures must be the triples
    # where a check that twists the table afresh fails, on a Lie table, on a
    # homogeneous table that breaks Jacobi, and on tables with one value
    # moved out of degree
    rng = random.Random(5)
    broken = _random_homogeneous_bracket(unitary_example().space, rng)
    assert any(check_lie(broken).values())
    tables = [so3(), broken]
    sp = broken.space
    for _ in range(6):
        i, j, k = rng.randrange(sp.dim), rng.randrange(sp.dim), rng.randrange(sp.dim)
        constants = dict(broken.bracket.constants)
        constants[(i, j)] = broken.bracket.pair(i, j) + sp.basis_vector(k)
        tables.append(BiGradedLieAlgebra(sp, BilinearMap(sp, constants)))
    seen_failure = False
    for g in tables:
        expected = _failing_triples(g)
        assert alpha_failures(g) == expected
        seen_failure = seen_failure or bool(expected)
    assert seen_failure


@pytest.mark.parametrize("name", ["qalgebra-lie", "qmat2-lie", "unitary2x2"])
def test_a_super_table_is_refused_by_the_twist(name):
    """The twist and the alpha identity read Deligne tables.  A table that
    already carries the super rule would twist into another super table
    (6, 144 and 144 spurious alpha failures on these three), so every
    entry point refuses it, as EnvelopingAlgebra does."""
    sup = unbraid(catalog()[name][1]()).algebra
    for call in (twist, unbraid, alpha_failures,
                 lambda g: jacobiator_alpha_check(g, 0, 0, 0)):
        with pytest.raises(BiglaError, match="needs the Deligne sign rule"):
            call(sup)


def test_involution_from_bidegree_is_automorphism():
    g = odd_pair()
    signs = involution_from_bidegree(g)
    assert signs == tuple(-1 if d.eps2 else 1 for d in g.space.degrees)
    sigma = LinearMap.diagonal(g.space, signs)
    for i in range(g.dim):
        for j in range(g.dim):
            assert sigma(g.bracket.pair(i, j)) == \
                g.bracket(sigma.images[i], sigma.images[j])


def test_morphism_transfer():
    """The twist signs depend only on degrees, which a linear map preserves,
    so one map intertwines both brackets or neither: the degree involution of
    so3 does, negating e2 alone does not."""
    g = so3()
    s = unbraid(g).algebra
    sigma = LinearMap.diagonal(g.space, [1, -1, -1])
    assert bracket_failures(g, g, sigma) == bracket_failures(s, s, sigma) == []
    flip_one = LinearMap.diagonal(g.space, [1, -1, 1])
    assert bracket_failures(g, g, flip_one) != []
    assert bracket_failures(s, s, flip_one) != []

    # a degree shift is not a linear map at all
    sp = g.space
    with pytest.raises(BiglaError, match="^image of e1 has degree "):
        LinearMap(sp, sp, {0: sp.basis_vector(1),
                           1: sp.basis_vector(0),
                           2: sp.basis_vector(0)})


def test_cartan_sign_flip():
    """Negating the g11 x g11 brackets of so3 gives so12."""
    g = so3()
    degs = g.space.degrees
    flipped = {(i, j): (-v if degs[i] == degs[j] == D11 else v).coeffs
               for (i, j), v in g.bracket.constants.items()}
    assert flipped == {pair: v.coeffs for pair, v in so12().bracket.constants.items()}
