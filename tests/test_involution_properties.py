"""Property test of the involution check against its definition.

A super Lie algebra carries its involution as one sign per basis vector.
The check reads each bracket value's eigenspace off the stored constants;
the oracle below applies the diagonal linear map sigma of those signs to
both sides of sigma[e_i, e_j] = [sigma e_i, sigma e_j] on every basis pair,
as the check did before the involution became a sign tuple.  That the
involution is a second Z2-grading is Scheunert, "Generalized Lie algebras",
J. Math. Phys. 20 (1979).
"""

import pytest

from bigla.equivalence import SuperLieAlgebraWithInvolution
from bigla.linear import LinearMap

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

from test_schema_properties import lie_tables  # noqa: E402


@st.composite
def tables_and_signs(draw):
    g = draw(lie_tables())
    return g, draw(st.lists(st.sampled_from((1, -1)), min_size=g.dim, max_size=g.dim))


def _reference_defects(g, signs):
    sigma = LinearMap.diagonal(g.space, signs)
    return [("not automorphism", i, j)
            for i in range(g.dim) for j in range(g.dim)
            if sigma(g.basis_bracket(i, j))
            != g.bracket_of(sigma.images[i], sigma.images[j])]


@settings(max_examples=80, deadline=None)
@given(tables_and_signs())
def test_involution_check_matches_the_diagonal_map(drawn):
    g, signs = drawn
    s = SuperLieAlgebraWithInvolution(g, signs)
    assert s.check(["involution"]) == {"involution": _reference_defects(g, signs)}
