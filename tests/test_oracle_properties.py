"""Property tests of the enveloping-algebra layer against independent oracles.

The closed-form Harish-Chandra basis of hc.equivariant_functionals is
compared with the elimination of tests/test_hc.py on genuine Lie algebras:
each catalog Lie algebra moved through a random invertible, degree-preserving
change of basis with Q(zeta8) entries and listed in a random order, which
reorders the PBW order inside each degree block.  (The generators of test_sweep_properties.py build
tables that are not Lie, and the closed form holds only for Lie algebras.)
On the same algebras and orders, hc.convolution, which reads the two
functionals' supports, is compared with the expansion of Delta(w) over every
normal word w of tests/test_hc.py (the PBW coproduct is dual to the shuffle
product; Kostant, "Graded manifolds, graded Lie theory, and prequantization",
1977).  On the same algebras, hc.bch_product, which sums brackets in g, is
compared with the truncated exp and log series in U(g) of tests/test_hc.py.

Leftmost rewriting is compared with rewriting at random positions: the PBW
rewriting system is confluent, so every strategy reaches the same normal
form (Bergman, "The diamond lemma for ring theory", Adv. Math. 29, 1978).
"""

import pytest

from bigla import hc
from bigla.lie import BiGradedLieAlgebra, check_lie
from bigla.linalg import Echelon, Matrix
from bigla.linear import BilinearMap, Vector
from bigla.scalars import ONE, ZERO, CycloScalar
from bigla.uea import MAX_TRUNCATION, EnvelopingAlgebra, normal_form_random

from test_catalog import catalog_lie
from test_hc import (closed_form_basis, drawn_functional, elimination_basis,
                     expanded_convolution, mixed_functional, primitive_vector,
                     series_log)
from test_lie import reordered

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

CATALOG = catalog_lie()
CONTEXTS = {name: EnvelopingAlgebra(g) for name, g in CATALOG.items()}

small = st.integers(-2, 2)
scalars = st.builds(CycloScalar, small, small, small, small)
# a nonzero rational part keeps the scalar nonzero
nonzero_scalars = st.builds(CycloScalar, st.sampled_from([-2, -1, 1, 2]),
                            small, small, small)


@st.composite
def block_matrices(draw, n):
    """L D U with L, U unipotent and D diagonal nonzero: invertible."""
    def unipotent(lower):
        return Matrix([[1 if i == j else draw(scalars) if (i > j) == lower else 0
                        for j in range(n)] for i in range(n)])
    diag = Matrix([[draw(nonzero_scalars) if i == j else 0 for j in range(n)]
                   for i in range(n)])
    return unipotent(True) @ diag @ unipotent(False)


def inverse_rows(m):
    """Rows of m^(-1), read off the reduced echelon form of [m | 1]."""
    n = m.nrows
    ech = Echelon()
    for i, row in enumerate(m.rows):
        ech.add_row({**dict(enumerate(row)), n + i: ONE})
    ech.back_substitute()
    inv = Matrix([[ech.pivots.get(c, {}).get(n + j, ZERO) for j in range(n)]
                  for c in range(n)])
    assert m @ inv == Matrix.identity(n)
    return inv.rows


def rebased(g, change):
    """g in the basis f_k = sum_i change[i][k] e_i."""
    n = g.dim
    inv = inverse_rows(change)
    f = [Vector(g.space, {i: change.rows[i][k] for i in range(n)}) for k in range(n)]
    constants = {}
    for a in range(n):
        for b in range(n):
            v = g.bracket(f[a], f[b])
            constants[(a, b)] = Vector(g.space, {
                i: sum((inv[i][j] * c for j, c in v.coeffs.items()), ZERO)
                for i in range(n)})
    return BiGradedLieAlgebra(g.space, BilinearMap(g.space, constants), name="rebased")


@st.composite
def rebased_lie_algebras(draw):
    """A catalog Lie algebra in a random degree-preserving basis, the basis
    listed in a random order: the PBW order keeps its degree blocks and
    follows that listing inside each block."""
    g = CATALOG[draw(st.sampled_from(sorted(CATALOG)))]
    n = g.dim
    rows = [[0] * n for _ in range(n)]
    for d in sorted(set(g.space.degrees)):
        block = [k for k, e in enumerate(g.space.degrees) if e == d]
        m = draw(block_matrices(len(block)))
        for r, i in enumerate(block):
            for c, j in enumerate(block):
                rows[i][j] = m.rows[r][c]
    h = rebased(g, Matrix(rows))
    return EnvelopingAlgebra(reordered(h, draw(st.permutations(range(n)))))


@settings(max_examples=25, deadline=None)
@given(rebased_lie_algebras(), st.integers(0, 4))
def test_closed_form_matches_the_elimination_on_rebased_algebras(ctx, n):
    """The closed-form equivariant basis equals the elimination's on Lie
    algebras in any basis, listed in any order. This certifies U(g) =
    U(g_0) (x) Lambda(g_1), which rests on the PBW theorem for Z2xZ2-graded Lie
    algebras (Scheunert, "Generalized Lie algebras", J. Math. Phys. 20
    (1979))."""
    assert not any(check_lie(ctx.g).values())
    n = min(n, 3) if ctx.g.dim == 8 else n
    assert closed_form_basis(ctx, n) == elimination_basis(ctx, n)


@settings(max_examples=25, deadline=None)
@given(rebased_lie_algebras(), st.integers(0, 4), st.randoms(use_true_random=False))
def test_convolution_matches_the_expanded_coproduct_on_rebased_algebras(ctx, n, rng):
    """The support-based convolution equals the sum over the expanded
    coproduct, in both orders. This certifies that Delta of a normal word is
    the sum of its unshuffles, each signed by the commutation factor eps(d, d')
    = (-1)^(d . d') of the grading (Scheunert, "Generalized Lie algebras", J.
    Math. Phys. 20 (1979))."""
    n = min(n, 3) if ctx.g.dim == 8 else n
    phi = drawn_functional(ctx, n, rng)
    psi = mixed_functional(ctx, n, rng)
    assert hc.convolution(phi, psi) == expanded_convolution(phi, psi)
    assert hc.convolution(psi, phi) == expanded_convolution(psi, phi)


@st.composite
def even_pairs(draw):
    """A rebased Lie algebra and two random vectors of its even part."""
    ctx = draw(rebased_lie_algebras())
    space = ctx.g.space
    even = [k for k in range(space.dim) if space.degrees[k].parity == 0]
    x, y = (Vector(space, {k: draw(scalars) for k in even}) for _ in range(2))
    return ctx, x, y


@settings(max_examples=15, deadline=None)
@given(even_pairs())
def test_bch_matches_the_series_log_on_rebased_algebras(case):
    """The bracket series of hc.bch_product equals log(exp(x) exp(y)) in
    U(g) at every order, and that log is primitive. This certifies
    Varadarajan's recursion for the Baker-Campbell-Hausdorff series
    ("Lie Groups, Lie Algebras, and Their Representations", 1984, 2.15) on
    the even part, where every degree pairs to 0 with every other."""
    ctx, x, y = case
    for n in range(MAX_TRUNCATION + 1):
        log = primitive_vector(series_log(ctx, x, y, n))
        assert log is not None, n
        assert hc.bch_product(ctx.g, x, y, n) == log, n


@st.composite
def catalog_words(draw):
    name = draw(st.sampled_from(sorted(CONTEXTS)))
    ctx = CONTEXTS[name]
    word = draw(st.lists(st.integers(0, ctx.g.dim - 1), max_size=8))
    return ctx, tuple(word)


@settings(max_examples=100, deadline=None)
@given(catalog_words(), st.randoms(use_true_random=False))
def test_leftmost_rewriting_agrees_with_random_rewriting(ctx_word, rng):
    """Rewriting at random positions reaches the leftmost normal form. The
    rewriting system is confluent because the normal words are a basis of U(g),
    the PBW theorem for Z2xZ2-graded Lie algebras (Scheunert, "Generalized Lie
    algebras", J. Math. Phys. 20 (1979)), read through Bergman's diamond
    lemma."""
    ctx, word = ctx_word
    assert normal_form_random(ctx, word, rng) == ctx.normal_form(word)
