"""Worked algebras: rotation algebras, the quaternion-like commutative
algebra on generators q1,q2,q3, its tilde extension of a Z2-graded algebra,
and the bi-graded Lie algebra of a 2x2 matrix algebra with a star operation,
together with the standard representation of so3 and the group elements
whose conjugation ``hc inner-check`` tests.

Conventions used throughout: q1^2 = i, q2^2 = -i, q3^2 = 1, q1q2 = q3,
q1q3 = i q2, q2q3 = -i q1, all commuting; i is zeta8^2.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import BiglaError
from .lie import BiGradedAssocAlgebra, BiGradedLieAlgebra, commutator_lie
from .linalg import Matrix
from .linear import AntiLinearMap, BiGradedSpace, BilinearMap, LinearMap, Vector
from .scalars import BiDegree, CycloScalar, D00, D01, D10, D11, I, ONE, sign_deligne


def _rotation(name: str, sign: int) -> BiGradedLieAlgebra:
    """e1 in degree (0,0), e2 and e3 in degree (1,1), with [e1,e2] = e3,
    [e3,e1] = e2 and [e2,e3] = sign.e1."""
    space = BiGradedSpace([("e1", D00), ("e2", D11), ("e3", D11)], name=name)
    e1, e2, e3 = (space.basis_vector(k) for k in range(3))
    e23 = e1.scale(sign)
    constants = {
        (0, 1): e3, (1, 0): -e3,
        (1, 2): e23, (2, 1): -e23,
        (2, 0): e2, (0, 2): -e2,
    }
    return BiGradedLieAlgebra(space, BilinearMap(space, constants), name=name)


def so3() -> BiGradedLieAlgebra:
    """Rotation algebra with e1 in degree (0,0) and e2, e3 in degree (1,1)."""
    return _rotation("so3", 1)


def so12() -> BiGradedLieAlgebra:
    """Same space as so3 with the (1,1)x(1,1) bracket negated: [e2,e3] = -e1."""
    return _rotation("so12", -1)


# q-multiplication table: index 0 is the unit, then q1, q2, q3.
# Entry (a, b) -> (coefficient, index of the product generator).
_QTABLE = {
    (0, 0): (ONE, 0), (0, 1): (ONE, 1), (0, 2): (ONE, 2), (0, 3): (ONE, 3),
    (1, 0): (ONE, 1), (2, 0): (ONE, 2), (3, 0): (ONE, 3),
    (1, 1): (I, 0), (2, 2): (-I, 0), (3, 3): (ONE, 0),
    (1, 2): (ONE, 3), (2, 1): (ONE, 3),
    (1, 3): (I, 2), (3, 1): (I, 2),
    (2, 3): (-I, 1), (3, 2): (-I, 1),
}

_QDEGREE = (D00, D10, D01, D11)
_QSUFFIX = ("", "*q1", "*q2", "*q3")


def algebra_B() -> BiGradedAssocAlgebra:
    """The commutative unital algebra on 1, q1, q2, q3 with the q-table."""
    space = BiGradedSpace([("1", D00), ("q1", D10), ("q2", D01), ("q3", D11)],
                          name="qalgebra")
    constants = {}
    for (a, b), (c, out) in _QTABLE.items():
        constants[(a, b)] = space.basis_vector(out).scale(c)
    unit = space.basis_vector(0)
    return BiGradedAssocAlgebra(space, BilinearMap(space, constants), unit=unit,
                                name="qalgebra")


def tilde_extension(c: BiGradedAssocAlgebra) -> BiGradedAssocAlgebra:
    """Extend a Z2-graded associative algebra C to the Z2xZ2-graded algebra
    C0 + C0.q3 + C1.q1 + C1.q2 with the q-table over the center.

    C must be graded by parity only: every degree (p, 0).  Products are
    (x qa)(y qb) = coeff(qa qb) . xy placed in the q-slot of qa qb.
    """
    for d in c.space.degrees:
        if d.eps2 != 0:
            raise BiglaError("tilde extension expects Z2 grading, degrees (p,0)")
    bad = c.check_associativity()
    if bad:
        raise BiglaError(f"input algebra fails associativity at {bad[:5]}")

    even = [k for k, d in enumerate(c.space.degrees) if d.eps1 == 0]
    odd = [k for k, d in enumerate(c.space.degrees) if d.eps1 == 1]
    # slots in PBW-friendly order: plain C0, then C0 q3, then C1 q1, then C1 q2
    slots = ([(k, 0) for k in even] + [(k, 3) for k in even]
             + [(k, 1) for k in odd] + [(k, 2) for k in odd])
    labels = [c.space.labels[k] + _QSUFFIX[q] for k, q in slots]
    degrees = [_QDEGREE[q] for _, q in slots]
    space = BiGradedSpace(list(zip(labels, degrees)),
                          name=f"{c.name}~" if c.name else "tilde")
    pos = {kq: n for n, kq in enumerate(slots)}

    constants = {}
    for na, (ka, qa) in enumerate(slots):
        for nb, (kb, qb) in enumerate(slots):
            coeff, qc = _QTABLE[(qa, qb)]
            prod = c.product.pair(ka, kb)
            if not prod:
                continue
            entries = {}
            for k, x in prod.coeffs.items():
                entries[pos[(k, qc)]] = coeff * x
            constants[(na, nb)] = Vector(space, entries)
    unit = None
    if c.unit is not None:
        unit = Vector(space, {pos[(k, 0)]: x for k, x in c.unit.coeffs.items()})
    return BiGradedAssocAlgebra(space, BilinearMap(space, constants), unit=unit,
                                name=space.name)


def _matrix_units(name: str, cells: Sequence[tuple[tuple[int, int], BiDegree]]
                  ) -> BiGradedAssocAlgebra:
    """Span of the matrix units E_ij on the given ((i, j), degree) cells:
    E_ij E_kl = E_il when j = k and cell (i, l) exists.  The unit is the
    sum of the diagonal cells."""
    space = BiGradedSpace([(f"E{i}{j}", d) for (i, j), d in cells], name=name)
    idx = {cell: k for k, (cell, _) in enumerate(cells)}
    constants = {}
    for a, ((i, j), _) in enumerate(cells):
        for b, ((k, l), _) in enumerate(cells):
            if j == k and (i, l) in idx:
                constants[(a, b)] = space.basis_vector(idx[(i, l)])
    unit = Vector(space, {k: ONE for (i, j), k in idx.items() if i == j})
    return BiGradedAssocAlgebra(space, BilinearMap(space, constants), unit=unit,
                                name=name)


def m2_superalgebra() -> BiGradedAssocAlgebra:
    """2x2 matrices with the checkerboard Z2 grading: diagonal even,
    off-diagonal odd (degrees (p,0) only)."""
    return _matrix_units("mat2-super", [((1, 1), D00), ((2, 2), D00),
                                        ((1, 2), D10), ((2, 1), D10)])


def upper_triangular3() -> BiGradedAssocAlgebra:
    """3x3 upper triangular matrices with degrees assigned additively:
    E12 -> (1,0), E23 -> (0,1), E13 -> (1,1), diagonal (0,0)."""
    return _matrix_units("triangular3", [((1, 1), D00), ((2, 2), D00), ((3, 3), D00),
                                         ((1, 2), D10), ((2, 3), D01), ((1, 3), D11)])


def odd_pair() -> BiGradedLieAlgebra:
    """Abelian algebra on one (1,0) and one (0,1) generator; its enveloping
    algebra is a 4-dimensional exterior-like algebra."""
    space = BiGradedSpace([("x", D10), ("y", D01)], name="odd-pair")
    return BiGradedLieAlgebra(space, BilinearMap(space, {}), name="odd-pair")


# 2x2 matrix algebra over the field, checkerboard graded, with conjugate
# transpose as the star operation.

def mat2_star() -> tuple[BiGradedAssocAlgebra, AntiLinearMap]:
    a = m2_superalgebra()
    sp = a.space
    images = {
        sp.index("E11"): sp.basis_vector(sp.index("E11")),
        sp.index("E22"): sp.basis_vector(sp.index("E22")),
        sp.index("E12"): sp.basis_vector(sp.index("E21")),
        sp.index("E21"): sp.basis_vector(sp.index("E12")),
    }
    return a, AntiLinearMap(sp, images)


def mat2_adapted_basis(a: BiGradedAssocAlgebra) -> list[tuple[str, Vector]]:
    """The eight standard anti-Hermitian/Hermitian combinations, a rational
    basis of the star eigenspaces of the 2x2 matrix algebra."""
    sp = a.space
    e11 = sp.basis_vector(sp.index("E11"))
    e22 = sp.basis_vector(sp.index("E22"))
    e12 = sp.basis_vector(sp.index("E12"))
    e21 = sp.basis_vector(sp.index("E21"))
    return [
        ("u1", e11.scale(I)), ("u2", e22.scale(I)),      # anti-fixed, even
        ("h1", e11), ("h2", e22),                        # fixed, even
        ("x1", e12 - e21), ("x2", (e12 + e21).scale(I)),  # anti-fixed, odd
        ("y1", e12 + e21), ("y2", (e12 - e21).scale(I)),  # fixed, odd
    ]


_BLOCK_DEGREE = {(0, -1): D00, (1, -1): D10, (1, 1): D01, (0, 1): D11}
_BLOCK_Q = {(0, -1): 0, (1, -1): 1, (1, 1): 2, (0, 1): 3}


def _star_sign(star: AntiLinearMap, v: Vector) -> int:
    sv = star(v)
    if sv == v:
        return 1
    if sv == -v:
        return -1
    raise BiglaError(f"{v!r} is not a +-1 eigenvector of star")


def _block(star: AntiLinearMap, v: Vector) -> tuple[int, int]:
    """(parity, star sign) of an adapted basis vector."""
    return v.degree().eps1, _star_sign(star, v)


def _adapted_coordinates(target: Vector) -> list[Fraction]:
    """The rational coordinates of a 2x2 matrix over mat2_adapted_basis, in
    its order.  Entry by entry, t11 = h1 + i u1, t22 = h2 + i u2,
    t12 - t21 = 2 (x1 + i y2) and t12 + t21 = 2 (y1 + i x2); a zeta or
    zeta^3 part leaves the rational span."""
    def re_im(t: CycloScalar) -> tuple[Fraction, Fraction]:
        re, z, im, z3 = t.rationals()
        if z or z3:
            raise BiglaError(f"bracket value leaves the rational span: {target!r}")
        return re, im

    t11, t12, t21, t22 = (target.coeff(target.space.index(label))
                          for label in ("E11", "E12", "E21", "E22"))
    h1, u1 = re_im(t11)
    h2, u2 = re_im(t22)
    x1, y2 = (r / 2 for r in re_im(t12 - t21))
    y1, x2 = (r / 2 for r in re_im(t12 + t21))
    return [u1, u2, h1, h2, x1, x2, y1, y2]


def unitary_example() -> BiGradedLieAlgebra:
    """Bi-graded Lie algebra of the 2x2 star superalgebra mat2_star, over
    the adapted basis of mat2_adapted_basis.

    Blocks by (parity, star sign): anti-fixed even -> (0,0), anti-fixed odd
    -> (1,0), fixed odd -> (0,1), fixed even -> (1,1).  On blocks with
    Deligne pairing 0 the bracket is the commutator ab - ba; on pairing-1
    blocks it is j(ab+ba) with j = i.1 the imaginary unit element,
    carrying the sign dictated by the q-table (+j on u1/h0 pairs, -j on
    h1-involved ones).  Structure constants come out rational: each value
    is re-expressed over the adapted basis in closed form, from the real
    and imaginary parts of its matrix entries.
    """
    a, star = mat2_star()
    names, vectors = zip(*mat2_adapted_basis(a))
    j = a.unit.scale(I)
    blocks = [_block(star, v) for v in vectors]
    degrees = [_BLOCK_DEGREE[b] for b in blocks]
    space = BiGradedSpace(list(zip(names, degrees)), name="unitary")

    constants = {}
    n = len(vectors)
    for p in range(n):
        for q in range(n):
            s = sign_deligne(degrees[p], degrees[q])
            val = (a.product(vectors[p], vectors[q])
                   - a.product(vectors[q], vectors[p]).scale(s))
            coeff, _ = _QTABLE[(_BLOCK_Q[blocks[p]], _BLOCK_Q[blocks[q]])]
            if coeff != 1:
                # table coefficient is +-i: multiply by the element +-j instead
                val = a.product(j, val)
                if coeff == -I:
                    val = -val
            if not val:
                continue
            coords = _adapted_coordinates(val)
            entries = {k: CycloScalar.from_rational(r) for k, r in enumerate(coords) if r}
            constants[(p, q)] = Vector(space, entries)
    return BiGradedLieAlgebra(space, BilinearMap(space, constants), name="unitary")


class MatrixRep:
    """Matrices attached to basis elements of a fixed space."""

    def __init__(self, space: BiGradedSpace, images: dict[int, Matrix]):
        sizes = {(m.nrows, m.ncols) for m in images.values()}
        if len(sizes) != 1 or len(images) != space.dim:
            raise ValueError("need one square matrix per basis element")
        (r, c), = sizes
        if r != c:
            raise ValueError("representation matrices must be square")
        self.space = space
        self.images = images
        self.dimension = r

    def of_vector(self, v: Vector) -> Matrix:
        out = Matrix.zero(self.dimension)
        for k, c in v.coeffs.items():
            out = out + self.images[k].scale(c)
        return out


def so3_standard_rep() -> MatrixRep:
    g = so3()
    images = {
        0: Matrix([[0, 0, 0], [0, 0, -1], [0, 1, 0]]),
        1: Matrix([[0, 0, 1], [0, 0, 0], [-1, 0, 0]]),
        2: Matrix([[0, -1, 0], [1, 0, 0], [0, 0, 0]]),
    }
    return MatrixRep(g.space, images)


def so3_group_elements() -> dict[str, Matrix]:
    """Candidate implementing matrices for the degree involution of so3.

    reflection-diag = diag(1,-1,-1) conjugates the standard representation
    to e1 -> e1, e2 -> -e2, e3 -> -e3.  rotation-x, the quarter turn about
    the first axis, does not: it squares to reflection-diag, not to the
    identity, and sends e2 to e3 under conjugation.
    """
    return {
        "reflection-diag": Matrix([[1, 0, 0], [0, -1, 0], [0, 0, -1]]),
        "rotation-x": Matrix([[1, 0, 0], [0, 0, -1], [0, 1, 0]]),
    }


def so3_group_automorphism() -> LinearMap:
    """The algebra automorphism every group element is tested against, the
    degree involution e1 -> e1, e2 -> -e2, e3 -> -e3."""
    return LinearMap.diagonal(so3().space, [1, -1, -1])


def catalog() -> dict[str, tuple[str, object]]:
    """Name -> (kind, constructor) for every shipped algebra."""
    return {
        "so3": ("lie", so3),
        "so12": ("lie", so12),
        "qalgebra": ("assoc", algebra_B),
        "qalgebra-lie": ("lie", lambda: commutator_lie(algebra_B())),
        "mat2-super": ("assoc", m2_superalgebra),
        "qmat2": ("assoc", lambda: tilde_extension(m2_superalgebra())),
        "qmat2-lie": ("lie", lambda: commutator_lie(tilde_extension(m2_superalgebra()))),
        "unitary2x2": ("lie", unitary_example),
        "odd-pair": ("lie", odd_pair),
        "triangular3": ("assoc", upper_triangular3),
    }
