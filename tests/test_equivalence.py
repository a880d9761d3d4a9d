"""Unbraiding round trips and the alpha sign identity."""

import random

import pytest

from bigla.catalog import catalog, odd_pair, so3, so12, unitary_example
from bigla.equivalence import (SuperLieAlgebraWithInvolution, alpha_sweep,
                               cartan_sign_flip, involution_from_bidegree,
                               jacobiator_alpha_check, morphism_transfer, rebraid,
                               unbraid)
from bigla.errors import AlgebraMismatch, DegreeViolation, InputNotLie, NotEvenType
from bigla.lie import AlgebraMorphism, BiGradedLieAlgebra, is_lie
from bigla.linear import BilinearMap, LinearMap


def _lie_entries():
    return [(name, ctor) for name, (kind, ctor) in catalog().items()
            if kind == "lie"]


def test_unbraid_so3_is_so12():
    s = unbraid(so3())
    assert s.algebra.name == "so3~s"
    target = so12()
    for i in range(3):
        for j in range(3):
            assert s.algebra.basis_bracket(i, j).coeffs == \
                target.basis_bracket(i, j).coeffs
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
                assert back.basis_bracket(i, j).coeffs == \
                    g.basis_bracket(i, j).coeffs, (name, i, j)


def test_unbraid_output_is_super_lie():
    for name, ctor in _lie_entries():
        report = unbraid(ctor()).check()
        assert all(v == [] for v in report.values()), (name, report)


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


def test_alpha_identity_on_catalog_triples():
    for name, ctor in _lie_entries():
        g = ctor()
        n = g.dim
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    res = jacobiator_alpha_check(g, a, b, c)
                    assert res.identity_holds, (name, a, b, c)


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
        broke_jacobi = broke_jacobi or not is_lie(g)
        triples = [(rng.randrange(n), rng.randrange(n), rng.randrange(n))
                   for _ in range(10)]
        for a, b, c in triples:
            assert jacobiator_alpha_check(g, a, b, c).identity_holds, \
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
    assert not jacobiator_alpha_check(crooked, x2, x1, x1).identity_holds
    assert not alpha_sweep(crooked)[(x2, x1, x1)].identity_holds


def test_alpha_sweep_agrees_with_the_per_triple_check():
    # the sweep twists the table once; each triple must see the same result
    # as a check that twists it afresh
    rng = random.Random(5)
    for g in (so3(), _random_homogeneous_bracket(unitary_example().space, rng)):
        n = g.dim
        sweep = alpha_sweep(g)
        assert list(sweep) == [(a, b, c) for a in range(n) for b in range(n)
                               for c in range(n)]
        for (a, b, c), r in sweep.items():
            single = jacobiator_alpha_check(g, a, b, c)
            assert (r.alpha_sign, r.residual_bi, r.residual_super) == \
                (single.alpha_sign, single.residual_bi, single.residual_super)


def test_involution_from_bidegree_is_automorphism():
    g = odd_pair()
    signs = involution_from_bidegree(g)
    assert signs == tuple(-1 if d.eps2 else 1 for d in g.space.degrees)
    sigma = LinearMap.diagonal(g.space, signs)
    for i in range(g.dim):
        for j in range(g.dim):
            assert sigma(g.basis_bracket(i, j)) == \
                g.bracket_of(sigma.images[i], sigma.images[j])


def test_morphism_transfer():
    g = so3()
    sigma = AlgebraMorphism(g, g, LinearMap.diagonal(g.space, [1, -1, -1]))
    sm = morphism_transfer(sigma)
    assert sm.map is sigma.map
    assert sm.source.algebra.name == "so3~s"

    flip_one = AlgebraMorphism(g, g, LinearMap.diagonal(g.space, [1, -1, 1]))
    with pytest.raises(AlgebraMismatch):
        morphism_transfer(flip_one)

    # a degree shift is not a linear map at all
    sp = g.space
    with pytest.raises(DegreeViolation):
        LinearMap(sp, sp, {0: sp.basis_vector(1),
                           1: sp.basis_vector(0),
                           2: sp.basis_vector(0)})


def test_cartan_sign_flip():
    flipped = cartan_sign_flip(so3())
    target = so12()
    for i in range(3):
        for j in range(3):
            assert flipped.basis_bracket(i, j).coeffs == \
                target.basis_bracket(i, j).coeffs
    twice = cartan_sign_flip(flipped)
    for (i, j), v in so3().bracket.constants.items():
        assert twice.basis_bracket(i, j).coeffs == v.coeffs
    with pytest.raises(NotEvenType):
        cartan_sign_flip(unitary_example())
