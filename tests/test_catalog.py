"""The shipped algebras, their representations, and the unitary embedding.

The embedding, the 4x4 representation of the q-algebra and the bracket
morphism check are oracles kept here: they certify catalog data, and no
command reads them.
"""

import pytest

from bigla.catalog import (_BLOCK_Q, _QSUFFIX, MatrixRep, _adapted_coordinates,
                           _block, algebra_B, catalog, m2_superalgebra,
                           mat2_adapted_basis, mat2_star, so3,
                           so3_group_automorphism, so3_group_elements,
                           so3_standard_rep, tilde_extension, unitary_example,
                           upper_triangular3)
from bigla.errors import BiglaError
from bigla.lie import BiGradedAssocAlgebra, check_lie, commutator_lie
from bigla.linalg import Echelon, Matrix
from bigla.linear import BiGradedSpace, BilinearMap, LinearMap, Vector
from bigla.scalars import D00, D01, D10, D11, I, ONE, ZERO, ZETA, CycloScalar


def catalog_lie():
    """Name -> algebra for every shipped Lie algebra."""
    return {name: make() for name, (kind, make) in catalog().items() if kind == "lie"}


def bracket_failures(source, target, phi):
    """Basis pairs (i, j) where phi[e_i, e_j] != [phi e_i, phi e_j]."""
    n = source.dim
    return [(i, j) for i in range(n) for j in range(n)
            if phi(source.bracket.pair(i, j))
            != target.bracket(phi.images[i], phi.images[j])]


def unitary_embedding():
    """The unitary algebra, the commutator algebra of the tilde extension of
    the 2x2 matrices, and the block-tagged inclusion of the one into the
    other: u0 lands plainly, u1 via q1, h1 via q2, h0 via q3.  As a bracket
    morphism it certifies that the case-table bracket satisfies Jacobi by
    transport."""
    a, star = mat2_star()
    source = unitary_example()
    target = commutator_lie(tilde_extension(a))
    index = target.space.index
    images = {p: Vector(target.space,
                        {index(a.space.labels[k] + _QSUFFIX[_BLOCK_Q[_block(star, v)]]): c
                         for k, c in v.coeffs.items()})
              for p, (_, v) in enumerate(mat2_adapted_basis(a))}
    return source, target, LinearMap(source.space, target.space, images)


def algebra_B_rep():
    """4x4 blocks over the 2x2 cells lam1 = z8.Id, lam2 = z8.[[0,1],[-1,0]]:
    q1 = offdiag(lam1), q2 = offdiag(lam2), q3 = diag(lam1 lam2)."""
    z, o = ZETA, ZERO
    q1 = Matrix([[o, o, z, o], [o, o, o, z], [z, o, o, o], [o, z, o, o]])
    q2 = Matrix([[o, o, o, z], [o, o, -z, o], [o, z, o, o], [-z, o, o, o]])
    q3 = Matrix([[o, I, o, o], [-I, o, o, o], [o, o, o, I], [o, o, -I, o]])
    return MatrixRep(algebra_B().space, {0: Matrix.identity(4), 1: q1, 2: q2, 3: q3})


def test_catalog_names():
    assert set(catalog()) == {
        "so3", "so12", "qalgebra", "qalgebra-lie", "mat2-super", "qmat2",
        "qmat2-lie", "unitary2x2", "odd-pair", "triangular3",
    }


def test_every_lie_entry_passes_the_axioms():
    for name, g in catalog_lie().items():
        report = check_lie(g)
        assert all(v == [] for v in report.values()), (name, report)


def test_every_assoc_entry_is_associative_and_unital():
    for name, (kind, make) in catalog().items():
        if kind != "assoc":
            continue
        a = make()
        assert a.check_associativity() == [], name
        assert a.product.check_homogeneity() == [], name
        assert a.unit is not None, name
        for k in range(a.dim):
            e = a.space.basis_vector(k)
            assert a.product(a.unit, e) == e, (name, k)
            assert a.product(e, a.unit) == e, (name, k)


def test_q_table():
    b = algebra_B()
    one, q1, q2, q3 = (b.space.basis_vector(k) for k in range(4))
    assert b.product(q1, q1) == one.scale(I)
    assert b.product(q2, q2) == one.scale(-I)
    assert b.product(q3, q3) == one
    assert b.product(q1, q2) == q3
    assert b.product(q1, q3) == q2.scale(I)
    assert b.product(q2, q3) == q1.scale(-I)
    # the table is commutative even though the generators are odd-graded
    for i in range(4):
        for j in range(4):
            assert b.product.pair(i, j) == b.product.pair(j, i)


def test_tilde_extension_of_mat2():
    t = tilde_extension(m2_superalgebra())
    assert t.dim == 8
    assert t.check_associativity() == []
    by_degree = {}
    for d in t.space.degrees:
        by_degree[d] = by_degree.get(d, 0) + 1
    assert by_degree == {D00: 2, D11: 2, D10: 2, D01: 2}
    assert "E12*q1" in t.space.labels and "E11*q3" in t.space.labels
    # unit stays the plain diagonal
    assert t.unit.coeffs == {t.space.index("E11"): t.unit.coeff(t.space.index("E11")),
                             t.space.index("E22"): t.unit.coeff(t.space.index("E22"))}


def test_tilde_extension_input_guards():
    with pytest.raises(BiglaError,
                       match=r"^tilde extension expects Z2 grading, degrees \(p,0\)$"):
        tilde_extension(algebra_B())  # q2, q3 live outside the (p,0) column
    sp = BiGradedSpace([("a", D00), ("b", D00)])
    va, vb = sp.basis_vector(0), sp.basis_vector(1)
    crooked = BiGradedAssocAlgebra(sp, BilinearMap(sp, {(0, 0): vb, (0, 1): va}))
    with pytest.raises(BiglaError, match="^input algebra fails associativity at "):
        tilde_extension(crooked)


def test_unitary_example_shape():
    g = unitary_example()
    assert g.dim == 8
    assert list(g.space.labels) == ["u1", "u2", "h1", "h2", "x1", "x2", "y1", "y2"]
    assert list(g.space.degrees) == [D00, D00, D11, D11, D10, D10, D01, D01]
    for v in g.bracket.constants.values():
        for c in v.values():
            assert c.is_rational()
    assert not any(check_lie(g).values())


def test_unitary_bracket_oracles():
    g = unitary_example()
    sp = g.space
    i = sp.index
    x1x1 = g.bracket.pair(i("x1"), i("x1"))
    assert x1x1.coeffs == {i("u1"): x1x1.coeff(i("u1")),
                           i("u2"): x1x1.coeff(i("u2"))}
    assert x1x1.coeff(i("u1")) == -2
    assert x1x1.coeff(i("u2")) == -2
    x1y1 = g.bracket.pair(i("x1"), i("y1"))
    assert x1y1.coeff(i("h1")) == 2
    assert x1y1.coeff(i("h2")) == -2
    assert set(x1y1.coeffs) == {i("h1"), i("h2")}


def eliminated_coordinates(basis, target):
    """Rational r with target = sum r_k basis_k, by elimination: each
    Q(zeta8) entry splits into its four rational components, one equation
    each, with the right-hand side in the last column."""
    ncols = len(basis)
    ech = Echelon()
    for k in range(target.space.dim):
        parts = [b.coeff(k).rationals() for b in basis] + [target.coeff(k).rationals()]
        for comp in range(4):
            ech.add_row({c: CycloScalar.from_rational(q[comp]) for c, q in enumerate(parts)})
    if ncols in ech.pivots or ech.rank < ncols:
        return None  # outside the rational span, or not a unique answer
    ech.back_substitute()
    return [ech.pivots[c].get(ncols, ZERO) for c in range(ncols)]


def test_closed_form_coordinates_match_the_elimination(monkeypatch):
    seen = []

    def recording(target):
        seen.append((target, _adapted_coordinates(target)))
        return seen[-1][1]
    monkeypatch.setattr("bigla.catalog._adapted_coordinates", recording)
    unitary_example()
    basis = [v for _, v in mat2_adapted_basis(m2_superalgebra())]
    assert len(seen) == 40
    for target, coords in seen:
        assert coords == eliminated_coordinates(basis, target), target
        assert sum((v.scale(r) for v, r in zip(basis, coords)),
                   Vector(target.space, {})) == target


def test_closed_form_coordinates_refuse_a_zeta_part():
    a = m2_superalgebra()
    basis = [v for _, v in mat2_adapted_basis(a)]
    e12 = a.space.basis_vector(a.space.index("E12"))
    for c in (ZETA, ONE + ZETA * ZETA * ZETA):
        target = e12.scale(c)
        assert eliminated_coordinates(basis, target) is None
        with pytest.raises(BiglaError, match="leaves the rational span"):
            _adapted_coordinates(target)


def test_unitary_embedding_is_a_morphism():
    source, target, phi = unitary_embedding()
    assert bracket_failures(source, target, phi) == []
    assert source.dim == 8 and target.dim == 8


def test_mat2_star_is_involutive_antiautomorphism():
    a, star = mat2_star()
    for k in range(a.dim):
        e = a.space.basis_vector(k)
        assert star(star(e)) == e
    for i in range(a.dim):
        for j in range(a.dim):
            ei, ej = a.space.basis_vector(i), a.space.basis_vector(j)
            assert star(a.product(ei, ej)) == a.product(star(ej), star(ei))
    # the imaginary unit element j = i.1 squares to -1 and is anti-fixed
    j = a.unit.scale(I)
    assert a.product(j, j) == -a.unit
    assert star(j) == -j


def test_so3_standard_rep():
    # rho[a,b] = rho(a)rho(b) - rho(b)rho(a): every Deligne sign on so3 is +1
    g, rep = so3(), so3_standard_rep()
    m = rep.images
    assert all(rep.of_vector(g.bracket.pair(i, j)) == m[i] @ m[j] - m[j] @ m[i]
               for i in range(3) for j in range(3))


def test_algebra_B_rep():
    b, rep = algebra_B(), algebra_B_rep()
    m = rep.images
    assert all(rep.of_vector(b.product.pair(i, j)) == m[i] @ m[j]
               for i in range(4) for j in range(4))


def test_so3_group_elements():
    elements = so3_group_elements()
    rot = elements["rotation-x"]
    refl = elements["reflection-diag"]
    assert rot @ rot == refl
    assert refl @ refl == Matrix.identity(3)
    # both candidates are claimed against the degree involution
    sp = so3().space
    assert so3_group_automorphism().images == {
        0: sp.basis_vector(0), 1: -sp.basis_vector(1), 2: -sp.basis_vector(2)}


def test_matrix_rep_validation():
    g = so3()
    with pytest.raises(ValueError):
        MatrixRep(g.space, {0: Matrix.identity(2)})  # one matrix for three letters
    with pytest.raises(ValueError):
        MatrixRep(g.space, {0: Matrix.identity(2), 1: Matrix.identity(3),
                            2: Matrix.identity(2)})


def test_upper_triangular3_unit():
    t = upper_triangular3()
    assert t.dim == 6
    assert t.unit == sum((t.space.basis_vector(t.space.index(f"E{i}{i}"))
                          for i in (2, 3)),
                         t.space.basis_vector(t.space.index("E11")))
