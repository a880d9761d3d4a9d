"""Property tests of the JSON schema: dumps writes, byte for byte, the
document the old dict builder below describes; random tables of every kind
survive a dump and reload byte for byte, associative tables keep their
product constants and unit exactly, and the loader agrees with a reference
loader that parses every coefficient where it stands."""

import json
from fractions import Fraction

import pytest

from bigla import lie
from bigla.catalog import catalog
from bigla.equivalence import SuperLieAlgebraWithInvolution, unbraid
from bigla.lie import BiGradedAssocAlgebra, BiGradedLieAlgebra
from bigla.linear import BiGradedSpace, BilinearMap, Vector
from bigla.scalars import (ALL_DEGREES, CycloScalar, degree, parse_rational,
                           sign_deligne, sign_super)
from bigla.schema import KIND_ASSOC, KIND_LIE, KIND_SUPER, dumps, loads, to_doc
from bigla.sparse import add_term

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

from test_sweep_properties import (homogeneous_tables, lie_algebras, scalars,  # noqa: E402
                                   spaces)


def oracle_scalar(c):
    return {"zeta8": [str(q) for q in c.rationals()]}


def oracle_value(v):
    return [{"basis": k, "coeff": oracle_scalar(c)} for k, c in sorted(v.coeffs.items())]


def oracle_table(m, upper_only):
    return [{"left": i, "right": j, "value": oracle_value(m.pair(i, j))}
            for i, j in sorted(m.constants) if not (upper_only and i > j)]


def oracle_doc(a):
    """The document of a as a dict, built from Fraction coordinates: the
    format dumps writes as text, json.dumps(doc, indent=2, sort_keys=True)."""
    basis = [{"label": lab, "degree": [d.eps1, d.eps2]}
             for lab, d in zip(a.space.labels, a.space.degrees)]
    if isinstance(a, SuperLieAlgebraWithInvolution):
        return {"kind": KIND_SUPER, "name": a.algebra.name, "basis": basis,
                "brackets": oracle_table(a.algebra.bracket, True),
                "involution": list(a.involution)}
    if isinstance(a, BiGradedAssocAlgebra):
        return {"kind": KIND_ASSOC, "name": a.name, "basis": basis,
                "products": oracle_table(a.product, False),
                "unit": None if a.unit is None else oracle_value(a.unit)}
    assert a.sign is sign_deligne
    return {"kind": KIND_LIE, "name": a.name, "basis": basis,
            "brackets": oracle_table(a.bracket, True)}


# characters JSON escapes or that ensure_ascii spells as \u escapes: a
# quote, a backslash, control characters, non-ASCII inside and outside the BMP
awkward = st.text(st.sampled_from('x"\\/\u00e9\u2603\U0001f600\n\t \x7f'), max_size=5)
# the loader takes labels without commas or edge spaces, and any name
labels = awkward.map(str.strip).filter(bool)


@st.composite
def awkward_spaces(draw):
    degrees = draw(st.lists(st.sampled_from(ALL_DEGREES), min_size=1, max_size=4))
    names = draw(st.lists(labels, min_size=len(degrees), max_size=len(degrees),
                          unique=True))
    return BiGradedSpace(list(zip(names, degrees)))


# coordinates over denominators above 1, with numerators of several digits,
# as well as the small ones
wide_rationals = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 60))
coefficients = scalars | st.builds(CycloScalar, wide_rationals, wide_rationals,
                                   wide_rationals, wide_rationals)


def tables(space):
    return st.just(BilinearMap(space, {})) | homogeneous_tables(space, coefficients)


@st.composite
def lie_tables(draw, sign=sign_deligne):
    space = draw(awkward_spaces())
    return BiGradedLieAlgebra(space, draw(tables(space)), name=draw(awkward), sign=sign)


@st.composite
def assoc_tables(draw):
    space = draw(awkward_spaces())
    nonzero = st.dictionaries(st.integers(0, space.dim - 1), coefficients.filter(bool),
                              min_size=1)
    unit = draw(st.none() | st.just(space.zero())
                | nonzero.map(lambda coeffs: Vector(space, coeffs)))
    return BiGradedAssocAlgebra(space, draw(tables(space)), unit=unit,
                                name=draw(awkward))


@st.composite
def super_tables(draw):
    g = draw(lie_tables(sign_super))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=g.dim, max_size=g.dim))
    return SuperLieAlgebraWithInvolution(g, signs)


any_tables = st.one_of(lie_tables(), assoc_tables(), super_tables())


@settings(max_examples=150, deadline=None)
@given(any_tables)
def test_dumps_writes_the_oracle_document(a):
    """dumps writes the text straight from the table and the scalars' int
    coordinates; json.dumps of the dict built from Fraction coordinates is
    the same text, and to_doc reads it back to that dict."""
    doc = oracle_doc(a)
    assert dumps(a) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert to_doc(a) == doc


def test_dumps_writes_the_oracle_document_of_every_catalog_file():
    written = [make() for kind, make in catalog().values()]
    written += [unbraid(make()) for kind, make in catalog().values() if kind == "lie"]
    for a in written:
        assert dumps(a) == json.dumps(oracle_doc(a), indent=2, sort_keys=True) + "\n"


@settings(max_examples=30, deadline=None)
@given(lie_tables(sign_super))
def test_a_bare_super_rule_table_is_not_written(g):
    # its mirror entries would come back with the Deligne rule on reload
    with pytest.raises(TypeError, match="^cannot serialize BiGradedLieAlgebra$"):
        dumps(g)
    with pytest.raises(TypeError, match="^cannot serialize BiGradedLieAlgebra$"):
        to_doc(g)


@settings(max_examples=60, deadline=None)
@given(any_tables)
def test_dump_load_dump_is_the_identity(a):
    """A table of every kind reloads to one that dumps to the same bytes. A
    file keeps the entries with left <= right and the reload fills in the rest
    by eps-antisymmetry, [y, x] = -eps(y, x) [x, y], with the commutation
    factor of the kind (Scheunert, "Generalized Lie algebras", J. Math. Phys.
    20 (1979))."""
    text = dumps(a)
    assert dumps(loads(text)) == text
    assert dumps(loads(text.encode("utf-8"))) == text


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


def reference_loads(text):
    """The loader with nothing shared between scalars: a parse_rational for
    every component where it stands, and every mirror entry the stored
    value times -s."""
    doc = json.loads(text)
    name = doc["name"]
    space = BiGradedSpace([(b["label"], degree(*b["degree"])) for b in doc["basis"]],
                          name=name)

    def value(terms):
        coeffs = {}
        for t in terms:
            c = CycloScalar(*(parse_rational(q) for q in t["coeff"]["zeta8"]))
            add_term(coeffs, t["basis"], c)
        return Vector(space, coeffs)

    if doc["kind"] == KIND_ASSOC:
        products = {(r["left"], r["right"]): value(r["value"]) for r in doc["products"]}
        unit = None if doc["unit"] is None else value(doc["unit"])
        return BiGradedAssocAlgebra(space, BilinearMap(space, products), unit=unit,
                                    name=name)
    sign = sign_super if doc["kind"] == KIND_SUPER else sign_deligne
    constants = {}
    for r in doc["brackets"]:
        i, j = r["left"], r["right"]
        constants[(i, j)] = v = value(r["value"])
        if i < j:
            constants[(j, i)] = v.scale(-sign(space.degrees[i], space.degrees[j]))
    g = BiGradedLieAlgebra(space, BilinearMap(space, constants), name=name, sign=sign)
    return g if doc["kind"] == KIND_LIE else SuperLieAlgebraWithInvolution(
        g, doc["involution"])


def contents(a):
    """Kind, structure constants as coefficient dicts, and unit or involution."""
    if isinstance(a, SuperLieAlgebraWithInvolution):
        kind, table, extra = KIND_SUPER, a.algebra.bracket, a.involution
    elif isinstance(a, BiGradedAssocAlgebra):
        kind, table = KIND_ASSOC, a.product
        extra = None if a.unit is None else a.unit.coeffs
    else:
        kind, table, extra = KIND_LIE, a.bracket, None
    return kind, table.constants, extra


# a few spellings of a few rationals, JSON ints among them
components = st.sampled_from(["0", "1", "-1", "1/2", "-2/4", "3", 0, 1, -1, 2])


@st.composite
def repetitive_docs(draw):
    """A table file of any kind whose coefficients all come from a pool of
    at most four zeta8 lists, so most of them repeat."""
    kind = draw(st.sampled_from((KIND_LIE, KIND_ASSOC, KIND_SUPER)))
    space = draw(spaces())
    n = space.dim
    pool = draw(st.lists(st.lists(components, min_size=4, max_size=4),
                         min_size=1, max_size=4))
    values = st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(pool)),
                      max_size=4).map(
        lambda terms: [{"basis": k, "coeff": {"zeta8": c}} for k, c in terms])
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=n * n))
    if kind != KIND_ASSOC:
        pairs = [(min(p), max(p)) for p in pairs]
    rows = [{"left": i, "right": j, "value": draw(values)}
            for i, j in dict.fromkeys(pairs)]
    doc = {"kind": kind, "name": "random",
           "basis": [{"label": lab, "degree": list(d)}
                     for lab, d in zip(space.labels, space.degrees)]}
    if kind == KIND_ASSOC:
        doc.update(products=rows, unit=draw(st.none() | values))
    else:
        doc["brackets"] = rows
    if kind == KIND_SUPER:
        doc["involution"] = draw(st.lists(st.sampled_from((1, -1)),
                                          min_size=n, max_size=n))
    return json.dumps(doc)


@settings(max_examples=150, deadline=None)
@given(repetitive_docs())
def test_loads_agrees_with_the_reference_loader(text):
    """Reading a repeated coefficient from the load's lookup and building a
    mirror entry by negation, or as the stored vector itself, give the
    algebra that parsing everything afresh gives: [y, x] = -eps(y, x) [x, y]
    with eps(y, x) = +-1 (Scheunert, "Generalized Lie algebras", J. Math.
    Phys. 20 (1979))."""
    assert contents(loads(text)) == contents(reference_loads(text))


def _table(a):
    """The one table of an algebra of any kind."""
    if isinstance(a, SuperLieAlgebraWithInvolution):
        return a.algebra.bracket
    return a.product if isinstance(a, BiGradedAssocAlgebra) else a.bracket


def _assert_loader_keeps_the_table(a):
    """loads(dumps(a)) gives a's pair(i, j) for every i and j and the int
    rows of a map built from a's Vectors, and it builds no Vector for its
    table, through of_nonzero or the constructor: the only one a load may
    build is an associative file's unit."""
    text = dumps(a)
    built = []
    of_nonzero, init = Vector.of_nonzero.__func__, Vector.__init__
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Vector, "of_nonzero", classmethod(
            lambda cls, *args: built.append(args) or of_nonzero(cls, *args)))
        patch.setattr(Vector, "__init__",
                      lambda self, *args: built.append(args) or init(self, *args))
        b = loads(text)
    assert len(built) == (getattr(a, "unit", None) is not None)
    old, new = _table(a), _table(b)
    n = a.space.dim
    pairs = [(i, j) for i in range(n) for j in range(n)]
    assert [new.pair(*p) for p in pairs] == [old.pair(*p) for p in pairs]
    vectors = BilinearMap(old.space, {p: old.pair(*p) for p in pairs})
    (b_new, rows_new), (b_old, rows_old) = lie._int_rows(new), lie._int_rows(vectors)
    assert b_new == b_old
    assert {p: sorted(row) for p, row in rows_new.items()} == \
        {p: sorted(row) for p, row in rows_old.items()}


def test_loading_a_catalog_file_builds_no_table_vector():
    written = [make() for kind, make in catalog().values()]
    written += [unbraid(make()) for kind, make in catalog().values() if kind == "lie"]
    for a in written:
        _assert_loader_keeps_the_table(a)


@settings(max_examples=30, deadline=None)
@given(lie_algebras())
def test_loading_a_random_lie_algebra_builds_no_table_vector(g):
    _assert_loader_keeps_the_table(g)
