"""Property tests of the JSON schema: random tables of every kind survive a
dump and reload byte for byte, and associative tables keep their product
constants and unit exactly."""

import pytest

from bigla.equivalence import SuperLieAlgebraWithInvolution
from bigla.lie import BiGradedAssocAlgebra, BiGradedLieAlgebra
from bigla.linear import Vector
from bigla.schema import dumps, loads

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

from test_sweep_properties import homogeneous_tables, scalars, spaces  # noqa: E402


@st.composite
def lie_tables(draw):
    space = draw(spaces())
    return BiGradedLieAlgebra(space, draw(homogeneous_tables(space)), name="random")


@st.composite
def assoc_tables(draw):
    space = draw(spaces())
    unit = draw(st.none() | st.dictionaries(st.integers(0, space.dim - 1), scalars)
                .map(lambda coeffs: Vector(space, coeffs)))
    return BiGradedAssocAlgebra(space, draw(homogeneous_tables(space)), unit=unit)


@st.composite
def super_tables(draw):
    g = draw(lie_tables())
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=g.dim, max_size=g.dim))
    return SuperLieAlgebraWithInvolution(g, signs)


@settings(max_examples=60, deadline=None)
@given(st.one_of(lie_tables(), assoc_tables(), super_tables()))
def test_dump_load_dump_is_the_identity(a):
    """A table of every kind reloads to one that dumps to the same bytes. A
    file keeps the entries with left <= right and the reload fills in the rest
    by eps-antisymmetry, [y, x] = -eps(y, x) [x, y], with the commutation
    factor of the kind (Scheunert, "Generalized Lie algebras", J. Math. Phys.
    20 (1979))."""
    text = dumps(a)
    assert dumps(loads(text)) == text


@settings(max_examples=60, deadline=None)
@given(assoc_tables())
def test_assoc_reload_keeps_constants_and_unit(a):
    """An associative table reloads with its product constants and unit
    exactly. Its product has no symmetry to rebuild entries from: the
    eps-commutator of such an algebra is what gives a Z2xZ2-graded Lie algebra
    (Scheunert, "Generalized Lie algebras", J. Math. Phys. 20 (1979))."""
    b = loads(dumps(a))
    drawn = {pair: v for pair, v in a.product.constants.items() if v}
    assert b.product.constants == drawn
    assert b.unit == a.unit
