"""Spaces, vectors, and the graded map types."""

import pytest

from bigla.errors import BiglaError
from bigla.linear import (AntiLinearMap, BiGradedSpace, BilinearMap, LinearMap,
                          Vector)
from bigla.scalars import D00, D10, D11, I, ONE, ZETA


def _space():
    return BiGradedSpace([("a", D00), ("b", D10), ("c", D11)], name="t")


def test_space_basics():
    sp = _space()
    assert sp.dim == 3
    assert sp.index("b") == 1
    assert sp.degrees[sp.index("c")] == D11
    assert sp.labels == ("a", "b", "c")
    with pytest.raises(KeyError):
        sp.index("z")
    with pytest.raises(ValueError):
        BiGradedSpace([("a", D00), ("a", D10)])


def test_space_equality_ignores_name():
    sp1 = BiGradedSpace([("a", D00)], name="x")
    sp2 = BiGradedSpace([("a", D00)], name="y")
    assert sp1 == sp2
    assert hash(sp1) == hash(sp2)
    assert sp1 != BiGradedSpace([("a", D10)])


def test_vector_arithmetic():
    sp = _space()
    v = sp.basis_vector(0) + sp.basis_vector(1).scale(2)
    w = v - sp.basis_vector(0)
    assert w.coeff(0) == 0
    assert 0 not in w.coeffs  # zeros are dropped eagerly
    assert (-w) + w == sp.zero()
    assert 3 * w == w.scale(3)
    with pytest.raises(BiglaError, match="^Vector and Vector over different bases$"):
        v + BiGradedSpace([("a", D00)]).basis_vector(0)


def test_vector_degree():
    sp = _space()
    assert sp.basis_vector(1).degree() == D10
    assert sp.zero().degree() is None  # zero is degenerately homogeneous
    mixed = sp.basis_vector(0) + sp.basis_vector(1)
    assert mixed.degree() is None
    parts = mixed.homogeneous_parts()
    assert set(parts) == {D00, D10}
    assert parts[D00] == sp.basis_vector(0)


def test_vector_conj_and_pretty():
    sp = _space()
    v = sp.basis_vector(0).scale(I)
    conj = AntiLinearMap(sp, {k: sp.basis_vector(k) for k in range(sp.dim)})
    assert conj(v) == sp.basis_vector(0).scale(-I)
    assert (sp.basis_vector(0) - sp.basis_vector(2).scale(I)).pretty() == "a - i*c"
    assert sp.basis_vector(1).scale(ONE - ZETA).pretty() == "(1 - z8)*b"
    assert sp.zero().pretty() == "0"


def test_linear_map_homogeneity_enforced():
    sp = _space()
    # image of a degree-(0,0) letter must stay in degree (0,0)
    with pytest.raises(BiglaError,
                       match=r"^image of a has degree BiDegree\(eps1=1, eps2=0\), "):
        LinearMap(sp, sp, {0: sp.basis_vector(1)})


def test_antilinear_map_conjugates():
    sp = _space()
    star = AntiLinearMap(sp, {0: sp.basis_vector(0), 1: -sp.basis_vector(1),
                              2: sp.basis_vector(2)})
    v = sp.basis_vector(1).scale(I)
    # coefficients conjugate before the images apply
    assert star(v) == sp.basis_vector(1).scale(I)
    assert star(sp.basis_vector(0).scale(ZETA)) == sp.basis_vector(0).scale(ZETA.conj())


def test_bilinear_map():
    sp = _space()
    m = BilinearMap(sp, {(1, 1): sp.basis_vector(0)})
    assert m.pair(1, 1) == sp.basis_vector(0)
    assert m.pair(0, 1) == sp.zero()
    a = sp.basis_vector(1).scale(2)
    assert m(a, a) == sp.basis_vector(0).scale(4)
    # (b, b) lands in degree (0,0) as declared; (b, c) would not
    bad = BilinearMap(sp, {(1, 2): sp.basis_vector(0)})
    assert bad.check_homogeneity() == [(1, 2)]
    assert m.check_homogeneity() == []


def test_a_given_value_builds_no_zero_vector(monkeypatch):
    """pair and the basis images of a map build the zero vector only for a
    missing entry; PBW rewriting reads a bracket through pair at every step."""
    sp = _space()
    m = BilinearMap(sp, {(1, 1): sp.basis_vector(0)})
    images = {k: sp.basis_vector(k) for k in range(sp.dim)}
    built = []
    init = Vector.__init__
    monkeypatch.setattr(Vector, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    m.pair(1, 1)
    LinearMap(sp, sp, images)
    assert built == []
    assert m.pair(0, 1) == sp.zero() and len(built) == 2
