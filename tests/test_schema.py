"""JSON serialization round trips and the malformed-input guards."""

import json
import random
from fractions import Fraction

import pytest

from bigla import schema
from bigla.catalog import algebra_B, catalog, so3, unitary_example
from bigla.equivalence import SuperLieAlgebraWithInvolution, twist, unbraid
from bigla.lie import BiGradedAssocAlgebra, BiGradedLieAlgebra, check_lie
from bigla.schema import (dumps, from_doc, load_path, loads, scalar_from_json,
                          scalar_to_json, to_doc)
from bigla.scalars import CycloScalar, I, ONE, parse_rational


def test_scalar_round_trip():
    rng = random.Random(211)
    for _ in range(30):
        c = CycloScalar(*(Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
                          for _ in range(4)))
        assert scalar_from_json(scalar_to_json(c), {}) == c
    assert scalar_to_json(I) == {"zeta8": ["0", "0", "1", "0"]}


def test_scalar_accepts_bare_ints_rejects_bools():
    assert scalar_from_json({"zeta8": [1, 0, 0, 0]}, {}) == ONE
    with pytest.raises(ValueError):
        scalar_from_json({"zeta8": [True, 0, 0, 0]}, {})
    with pytest.raises(ValueError):
        scalar_from_json({"zeta8": ["1", "0", "0"]}, {})
    with pytest.raises(ValueError):
        scalar_from_json(["1", "0", "0", "0"], {})


def _so3_with_terms(terms):
    doc = to_doc(so3())
    doc["brackets"][0]["value"] = [{"basis": 2, "coeff": {"zeta8": c}} for c in terms]
    return doc


def test_a_repeated_coefficient_is_checked_again():
    # (True, 0, 0, 0) equals and hashes like (1, 0, 0, 0), so a lookup made
    # before the type test would take it for the scalar read before it
    with pytest.raises(ValueError, match="must be a string, got True"):
        from_doc(_so3_with_terms([[1, 0, 0, 0], [True, 0, 0, 0]]))


def test_a_repeated_float_coefficient_is_checked_again():
    # (1.0, 0, 0, 0) too equals and hashes like (1, 0, 0, 0)
    with pytest.raises(ValueError, match="must be a string, got 1.0$"):
        from_doc(_so3_with_terms([[1, 0, 0, 0], [1.0, 0, 0, 0]]))


@pytest.mark.parametrize("text, value", [
    ("0", 0), ("-0", 0), ("007", 7), ("+1", 1), (" 1 ", 1), ("1_000", 1000),
    ("\u0663", 3), ("1/2", Fraction(1, 2)), ("-2/4", Fraction(-1, 2)),
])
def test_parse_rational_values(text, value):
    """Whole numbers in ASCII digits are read by int, every other spelling
    by Fraction; both give what Fraction(text) gives."""
    assert parse_rational(text) == value == Fraction(text)


@pytest.mark.parametrize("text, message", [
    ("--1", "Invalid literal for Fraction: '--1'"),
    ("-", "Invalid literal for Fraction: '-'"),
    ("", "Invalid literal for Fraction: ''"),
    # a digit to str.isdigit, but not to int or Fraction
    ("\u00b2", "Invalid literal for Fraction: '\u00b2'"),
    ("-\u00b2", "Invalid literal for Fraction: '-\u00b2'"),
    ("1e3", "exponent notation in '1e3'"),
    ("1/0", "zero denominator in '1/0'"),
])
def test_parse_rational_messages(text, message):
    with pytest.raises(ValueError) as exc:
        parse_rational(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("bad, message", [
    ("1/0", "zero denominator in '1/0'"),
    ("x", "Invalid literal for Fraction: 'x'"),
])
def test_a_bad_component_after_repeats_keeps_its_message(bad, message):
    terms = [["1", "0", "-1", "0"]] * 3 + [["1", "0", bad, "0"], [bad, "0", "0", "0"]]
    with pytest.raises(ValueError) as exc:
        from_doc(_so3_with_terms(terms))
    assert str(exc.value) == message


@pytest.mark.parametrize("name", ["qmat2-lie", "unitary2x2"])
def test_each_distinct_component_is_parsed_once_per_load(name, monkeypatch):
    text = dumps(catalog()[name][1]())
    distinct = {q for row in json.loads(text)["brackets"] for term in row["value"]
                for q in term["coeff"]["zeta8"]}
    calls = []

    def counted(q):
        calls.append(q)
        return parse_rational(q)

    monkeypatch.setattr(schema, "parse_rational", counted)
    for n in (1, 2):
        assert dumps(loads(text)) == text
        # nothing read in one load is kept for the next
        assert sorted(calls) == sorted(list(distinct) * n)


def test_lie_round_trip():
    for name, (kind, make) in catalog().items():
        if kind != "lie":
            continue
        g = make()
        back = loads(dumps(g))
        assert isinstance(back, BiGradedLieAlgebra)
        assert back.name == g.name
        assert back.space.labels == g.space.labels
        assert back.space.degrees == g.space.degrees
        for i in range(g.dim):
            for j in range(g.dim):
                assert back.bracket.pair(i, j).coeffs == \
                    g.bracket.pair(i, j).coeffs, (name, i, j)


def test_assoc_round_trip():
    for name, (kind, make) in catalog().items():
        if kind != "assoc":
            continue
        a = make()
        back = loads(dumps(a))
        assert isinstance(back, BiGradedAssocAlgebra)
        assert back.unit == a.unit
        for i in range(a.dim):
            for j in range(a.dim):
                assert back.product.pair(i, j).coeffs == \
                    a.product.pair(i, j).coeffs, (name, i, j)


def test_super_round_trip():
    s = unbraid(unitary_example())
    back = loads(dumps(s))
    assert isinstance(back, SuperLieAlgebraWithInvolution)
    assert back.involution == s.involution
    for i in range(s.dim):
        for j in range(s.dim):
            assert back.algebra.bracket.pair(i, j).coeffs == \
                s.algebra.bracket.pair(i, j).coeffs


def test_docs_store_upper_triangle_only():
    doc = to_doc(so3())
    stored = {(row["left"], row["right"]) for row in doc["brackets"]}
    assert stored == {(0, 1), (0, 2), (1, 2)}
    # deligne mirror: [e2,e1] = -[e1,e2]
    g = from_doc(doc)
    assert g.bracket.pair(1, 0) == -g.bracket.pair(0, 1)


def test_super_mirror_uses_the_super_sign():
    # an odd self-paired letter: super antisymmetry negates with +1 sign
    s = unbraid(unitary_example())
    doc = to_doc(s)
    back = loads(json.dumps(doc))
    x1 = s.space.index("x1")
    y1 = s.space.index("y1")
    # odd-odd pair: [y,x] = +[x,y] under the super rule
    assert back.algebra.bracket.pair(y1, x1).coeffs == \
        back.algebra.bracket.pair(x1, y1).coeffs


@pytest.mark.parametrize("name", ["qalgebra-lie", "qmat2-lie", "unitary2x2"])
def test_a_super_table_is_written_only_with_its_involution(name):
    # a Lie file's mirror entries are rebuilt with the Deligne rule, which
    # would change these three twisted tables on reload
    g = catalog()[name][1]()
    with pytest.raises(TypeError, match="cannot serialize"):
        to_doc(twist(g))
    s = unbraid(g)
    assert loads(dumps(s)).algebra.bracket.constants == s.algebra.bracket.constants


def test_loading_never_checks_axioms():
    doc = to_doc(so3())
    doc["brackets"][0]["value"].append(
        {"basis": 1, "coeff": scalar_to_json(ONE)})
    broken = from_doc(doc)  # loads fine
    assert any(check_lie(broken).values())


def test_malformed_documents():
    good = to_doc(so3())

    bad = dict(good); bad["kind"] = "heap"
    with pytest.raises(ValueError):
        from_doc(bad)
    with pytest.raises(ValueError):
        from_doc([])
    bad = dict(good); bad["basis"] = []
    with pytest.raises(ValueError):
        from_doc(bad)
    bad = dict(good); bad["basis"] = [{"label": "a"}]
    with pytest.raises(ValueError):
        from_doc(bad)
    for deg in ([0, 1, 1], [False, False], [True, 0], [1.0, 0]):
        bad = dict(good); bad["basis"] = [{"label": "a", "degree": deg}]
        bad["brackets"] = []
        with pytest.raises(ValueError):
            from_doc(bad)
    # labels the CLI could not address, or that str() would invent
    for label in ("a,b", " e1", "e1 ", "", 1, None):
        bad = dict(good)
        bad["basis"] = [dict(good["basis"][0], label=label)] + good["basis"][1:]
        with pytest.raises(ValueError):
            from_doc(bad)
    bad = dict(good); bad["name"] = 7
    with pytest.raises(ValueError):
        from_doc(bad)
    bad = dict(good)
    bad["brackets"] = [{"left": 0, "right": 5, "value": []}]
    with pytest.raises(ValueError):
        from_doc(bad)
    bad["brackets"] = [{"left": 1, "right": 0, "value": []}]
    with pytest.raises(ValueError):
        from_doc(bad)  # lower-triangle entries are rejected
    bad["brackets"] = [{"left": 0, "right": 1, "value": []},
                       {"left": 0, "right": 1, "value": []}]
    with pytest.raises(ValueError):
        from_doc(bad)
    bad["brackets"] = [{"left": 0, "right": 1,
                        "value": [{"basis": 0}]}]
    with pytest.raises(ValueError):
        from_doc(bad)
    # JSON true is not the index 1, and a zero denominator is malformed
    coeff = scalar_to_json(ONE)
    for row in ({"left": True, "right": 1, "value": []},
                {"left": 0, "right": True, "value": []},
                {"left": 0, "right": 1, "value": [{"basis": True, "coeff": coeff}]},
                {"left": 0, "right": 1,
                 "value": [{"basis": 2, "coeff": {"zeta8": ["1/0", "0", "0", "0"]}}]}):
        bad["brackets"] = [row]
        with pytest.raises(ValueError):
            from_doc(bad)
    assoc = to_doc(algebra_B())
    assoc["products"] = [{"left": 0, "right": True, "value": []}]
    with pytest.raises(ValueError):
        from_doc(assoc)


def test_involution_validation():
    doc = to_doc(unbraid(so3()))
    for broken in ([1, -1], [1, -1, 2], "diag", [1, -1, True]):
        bad = dict(doc)
        bad["involution"] = broken
        with pytest.raises(ValueError):
            from_doc(bad)


def test_unit_may_be_null():
    a = algebra_B()
    bare = BiGradedAssocAlgebra(a.space, a.product, unit=None, name="no-unit")
    doc = to_doc(bare)
    assert doc["unit"] is None
    assert loads(dumps(bare)).unit is None


def test_dumps_is_stable_and_file_round_trips(tmp_path):
    text = dumps(so3())
    assert text.endswith("\n")
    assert json.loads(text)["kind"] == "bigraded-lie"
    assert dumps(loads(text)) == text
    target = tmp_path / "so3.json"
    target.write_text(dumps(so3()))
    assert dumps(load_path(str(target))) == text


MISPLACED = {"left": 1, "right": 0, "value": []}


@pytest.mark.parametrize("rows, message", [
    # a malformed row anywhere in the table is reported before a row that
    # stores left > right
    ([MISPLACED, {"left": 0, "right": 1}],
     "bracket row needs left, right, value: {'left': 0, 'right': 1}"),
    ([MISPLACED, {"left": 0, "right": 3, "value": []}], "bracket index 3 out of range"),
    ([MISPLACED, {"left": 0, "right": 1, "value": [{"basis": 3, "coeff": {}}]}],
     "basis index 3 out of range"),
    ([MISPLACED, {"left": 2, "right": 1, "value": {}}],
     "value must be a list of terms, got {}"),
    ([MISPLACED, {"left": 0, "right": 1, "value": []},
      {"left": 0, "right": 1, "value": []}], "duplicate bracket entry (0, 1)"),
    ([MISPLACED, MISPLACED], "duplicate bracket entry (1, 0)"),
    ([MISPLACED, {"left": 0, "right": 2, "value": [
        {"basis": 1, "coeff": {"zeta8": ["1/0", "0", "0", "0"]}}]}],
     "zero denominator in '1/0'"),
    # with no malformed row, the first misplaced row is named, also when an
    # earlier row stores its mirror
    ([{"left": 0, "right": 1, "value": []}, {"left": 2, "right": 0, "value": []},
      MISPLACED], "store only left <= right, got (2, 0)"),
    ([{"left": 0, "right": 1, "value": [{"basis": 2, "coeff": {"zeta8": [1, 0, 0, 0]}}]},
      MISPLACED], "store only left <= right, got (1, 0)"),
], ids=["row-keys", "row-index", "basis-index", "value-type", "duplicate",
        "duplicate-misplaced", "zero-denominator", "first-misplaced", "mirror-stored"])
def test_which_fault_a_bracket_table_reports(rows, message):
    doc = to_doc(so3())
    doc["brackets"] = rows
    with pytest.raises(ValueError) as exc:
        from_doc(doc)
    assert str(exc.value) == message


@pytest.mark.parametrize("component", [["1"], {"q": "1"}])
def test_an_unhashable_component_is_refused_after_a_repeat(component):
    # a list or an object cannot be looked up among the coefficients read
    # so far, and takes the per-component checks
    terms = [["1", "0", "0", "0"], [1, 0, 0, 0], [component, 0, 0, 0]]
    with pytest.raises(ValueError) as exc:
        from_doc(_so3_with_terms(terms))
    assert str(exc.value) == f"rational component must be a string, got {component!r}"


def test_load_path_reads_utf8_bytes(tmp_path):
    doc = to_doc(so3())
    doc["basis"][0]["label"] = "é"
    path = tmp_path / "accent.json"
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    assert load_path(str(path)).space.labels[0] == "é"
