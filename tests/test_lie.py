"""Bracket axioms under each table's own sign rule, and the commutator functor.

``reordered``, a table on its basis listed in another order, is kept here
for the tests that compare results across PBW orders.
"""

import pytest

from bigla import lie
from bigla.catalog import (algebra_B, catalog, m2_superalgebra, odd_pair, so3, so12,
                           unitary_example, upper_triangular3)
from bigla.errors import BiglaError, InputNotLie
from bigla.lie import (BiGradedAssocAlgebra, BiGradedLieAlgebra,
                       check_antisymmetry, check_homogeneity, check_jacobi,
                       check_lie, commutator_lie, jacobiator, require_lie)
from bigla.linear import BiGradedSpace, BilinearMap, LinearMap, Vector
from bigla.scalars import D00, D10, D11, I, ZETA, CycloScalar, sign_super

from test_catalog import bracket_failures


def reordered(g, order):
    """g with its basis listed in the given order, under g's sign rule."""
    pos = {k: p for p, k in enumerate(order)}
    space = BiGradedSpace([(g.space.labels[k], g.space.degrees[k]) for k in order],
                          name=g.name)
    constants = {(pos[i], pos[j]): Vector(space, {pos[k]: c for k, c in v.items()})
                 for (i, j), v in g.bracket.constants.items()}
    return BiGradedLieAlgebra(space, BilinearMap(space, constants), sign=g.sign)


def _broken_so3():
    # [e1,e2] = e3 + e2 keeps homogeneity (e2, e3 share a degree) but breaks
    # Jacobi and antisymmetry pairing with [e2,e1] = -e3
    g = so3()
    constants = {pair: g.bracket.pair(*pair) for pair in g.bracket.constants}
    constants[(0, 1)] = constants[(0, 1)] + g.space.basis_vector(1)
    return BiGradedLieAlgebra(g.space, BilinearMap(g.space, constants),
                              name="broken")


def test_so3_is_lie():
    report = check_lie(so3())
    assert report == {"homogeneity": [], "antisymmetry": [], "jacobi": []}
    require_lie(so12())


def test_check_lie_runs_only_the_named_checks():
    g = _broken_so3()
    assert check_lie(g, only=["jacobi"]) == {"jacobi": check_jacobi(g)}
    assert check_lie(g, only=("homogeneity", "antisymmetry")) == {
        "homogeneity": [], "antisymmetry": check_antisymmetry(g)}
    assert check_lie(g, only=()) == check_lie(g)


def test_broken_table_detected():
    g = _broken_so3()
    assert check_homogeneity(g) == []
    assert check_antisymmetry(g) != []
    assert check_jacobi(g) != []
    with pytest.raises(InputNotLie):
        require_lie(g)


def test_jacobiator_vanishes_on_lie():
    g = unitary_example()
    n = g.dim
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert jacobiator(g, a, b, c) == g.space.zero()


def test_antisymmetry_diagonal_rule():
    # a self-pairing-odd letter may have [x,x] != 0; an even one may not
    sp = BiGradedSpace([("x", D10)])
    g = BiGradedLieAlgebra(sp, BilinearMap(sp, {(0, 0): sp.basis_vector(0).scale(0)}))
    assert check_antisymmetry(g) == []
    sp2 = BiGradedSpace([("h", D00), ("x", D10)])
    with_sq = BiGradedLieAlgebra(
        sp2, BilinearMap(sp2, {(1, 1): sp2.basis_vector(0).scale(2)}))
    assert check_antisymmetry(with_sq) == []
    bad = BiGradedLieAlgebra(
        sp2, BilinearMap(sp2, {(0, 0): sp2.basis_vector(0)}))
    assert (0, 0) in check_antisymmetry(bad)


def test_int_verdicts_on_the_edge_cases():
    """The antisymmetry and homogeneity checks read int rows and degree
    codes; each case below is one way a pair can fail or pass."""
    sp = BiGradedSpace([("h", D00), ("x", D10), ("u", D11)])
    e = sp.basis_vector

    def table(constants, sign=None):
        bracket = BilinearMap(sp, constants)
        return (BiGradedLieAlgebra(sp, bracket) if sign is None
                else BiGradedLieAlgebra(sp, bracket, sign=sign))

    # a nonzero [x,x]: sign(x,x) = -1 and sign(u,u) = +1 under both rules
    for sign in (None, sign_super):
        assert check_antisymmetry(table({(1, 1): e(0).scale(2)}, sign)) == []
        assert check_antisymmetry(table({(2, 2): e(0).scale(2)}, sign)) == [(2, 2)]
    # a pair stored on one side only fails as (smaller, larger), either way
    assert check_antisymmetry(table({(0, 1): e(1)})) == [(0, 1)]
    assert check_antisymmetry(table({(1, 0): e(1)})) == [(0, 1)]
    # a mirror that differs in one zeta coordinate; sign(h, x) = +1
    value = e(1).scale(CycloScalar(1, 2, 0, -1))
    assert check_antisymmetry(table({(0, 1): value, (1, 0): -value})) == []
    off = -value + e(1).scale(CycloScalar(0, 0, 1, 0))
    assert check_antisymmetry(table({(0, 1): value, (1, 0): off})) == [(0, 1)]
    # [x,u] lands in degree (0,1), which no letter has: u and h are out of it;
    # [h,u] = u is in degree, and one extra term h takes it out
    assert check_homogeneity(table({(1, 2): e(2)})) == [(1, 2)]
    assert check_homogeneity(table({(0, 2): e(2)})) == []
    assert check_homogeneity(table({(0, 2): e(2) + e(0).scale(ZETA)})) == [(0, 2)]


def test_sign_rule_changes_verdict():
    # odd-pair brackets [x,x] = [y,y] = 0 under Deligne; under the super rule
    # the diagonal is still unconstrained for parity-1 letters
    g = odd_pair()
    assert check_antisymmetry(g) == []
    assert check_antisymmetry(
        BiGradedLieAlgebra(g.space, g.bracket, sign=sign_super)) == []
    # so12 fails the super-sign Jacobi only after unbraiding fixes the signs,
    # but it is Deligne-Lie as shipped
    assert check_lie(so12()) == {"homogeneity": [], "antisymmetry": [],
                                 "jacobi": []}


def test_antisymmetry_is_computed_once_per_map_and_sign_rule(monkeypatch):
    """check_lie's Jacobi check reads the antisymmetry verdict, which the
    bracket keeps per sign rule: one computation per rule, and a caller
    that changes the returned list does not change the kept verdict."""
    runs = []
    failures = lie._antisymmetry_failures
    monkeypatch.setattr(lie, "_antisymmetry_failures",
                        lambda g: runs.append(g.sign) or failures(g))
    # Deligne-Lie as shipped; under the super rule the mirrors of
    # [e_1, e_3] and [e_2, e_3] are off by their sign
    g = catalog()["qalgebra-lie"][1]()
    assert check_lie(g) == check_lie(g) == {"homogeneity": [], "antisymmetry": [],
                                            "jacobi": []}
    assert len(runs) == 1
    check_antisymmetry(g).append((0, 0))
    assert check_antisymmetry(g) == []
    sup = BiGradedLieAlgebra(g.space, g.bracket, sign=sign_super)
    fresh = BiGradedLieAlgebra(g.space, BilinearMap(
        g.space, {p: g.bracket.pair(*p) for p in g.bracket.constants}), sign=sign_super)
    assert check_antisymmetry(sup) == failures(fresh) != []
    assert check_jacobi(sup) == check_jacobi(fresh)
    assert len(runs) == 3


def test_commutator_lie_b():
    B = algebra_B()
    g = commutator_lie(B)
    assert not any(check_lie(g).values())
    sp = g.space
    i1, q1, q2, q3 = (sp.index(l) for l in ("1", "q1", "q2", "q3"))
    assert g.bracket.pair(q1, q1) == sp.basis_vector(i1).scale(I * 2)
    assert g.bracket.pair(q2, q2) == sp.basis_vector(i1).scale(I * -2)
    assert g.bracket.pair(q1, q2) == sp.zero()
    assert g.bracket.pair(q3, q3) == sp.zero()
    assert g.bracket.pair(q1, q3) == sp.basis_vector(q2).scale(I * 2)
    assert g.bracket.pair(q2, q3) == sp.basis_vector(q1).scale(I * -2)


def test_commutator_lie_guards():
    sp = BiGradedSpace([("a", D00), ("b", D00)])
    nonassoc = BiGradedAssocAlgebra(
        sp, BilinearMap(sp, {(0, 0): sp.basis_vector(1),
                             (1, 0): sp.basis_vector(0)}))
    with pytest.raises(BiglaError, match="^product fails associativity at triples "):
        commutator_lie(nonassoc)
    bad_degree = BiGradedAssocAlgebra(
        BiGradedSpace([("a", D00), ("b", D10)]),
        BilinearMap(BiGradedSpace([("a", D00), ("b", D10)]),
                    {(0, 0): BiGradedSpace([("a", D00), ("b", D10)]).basis_vector(1)}))
    with pytest.raises(BiglaError, match="^product not homogeneous at pairs "):
        commutator_lie(bad_degree)


def test_subalgebras():
    """The bracket has degree (0,0), so the parity-0 letters of the unitary
    algebra, its u and h blocks, span a subalgebra."""
    g = unitary_example()
    even = {k for k, d in enumerate(g.space.degrees) if d.parity == 0}
    assert len(even) == 4
    assert all(set(g.bracket.pair(i, j).coeffs) <= even for i in even for j in even)


def test_cartan_pair():
    """so3 lies in degrees (0,0) and (1,1), so k = g00 and p = g11 satisfy
    [k,k] <= k, [k,p] <= p and [p,p] <= k: that is homogeneity."""
    g = so3()
    assert list(zip(g.space.labels, g.space.degrees)) == [
        ("e1", D00), ("e2", D11), ("e3", D11)]
    assert check_homogeneity(g) == []


def test_check_morphism():
    g = so3()
    assert bracket_failures(g, g, LinearMap.diagonal(g.space, [1, 1, 1])) == []
    # negating a single generator of a pair breaks the bracket relation
    assert bracket_failures(g, g, LinearMap.diagonal(g.space, [1, -1, 1])) != []


def test_assoc_checks():
    t = upper_triangular3()
    assert t.check_associativity() == []
    assert t.product.check_homogeneity() == []
    m = m2_superalgebra()
    assert m.check_associativity() == []
    assert m.check_unit() == []
