"""JSON serialization round trips and the malformed-input guards."""

import json
import random
from fractions import Fraction

import pytest

from bigla.catalog import algebra_B, catalog, so3, unitary_example
from bigla.equivalence import SuperLieAlgebraWithInvolution, unbraid
from bigla.lie import BiGradedAssocAlgebra, BiGradedLieAlgebra
from bigla.schema import (dumps, from_doc, load_path, loads, save_path,
                          scalar_from_json, scalar_to_json, to_doc)
from bigla.scalars import CycloScalar, I, ONE


def test_scalar_round_trip():
    rng = random.Random(211)
    for _ in range(30):
        c = CycloScalar._raw(tuple(Fraction(rng.randrange(-9, 10),
                                            rng.randrange(1, 7))
                                   for _ in range(4)))
        assert scalar_from_json(scalar_to_json(c)) == c
    assert scalar_to_json(I) == {"zeta8": ["0", "0", "1", "0"]}


def test_scalar_accepts_bare_ints_rejects_bools():
    assert scalar_from_json({"zeta8": [1, 0, 0, 0]}) == ONE
    with pytest.raises(ValueError):
        scalar_from_json({"zeta8": [True, 0, 0, 0]})
    with pytest.raises(ValueError):
        scalar_from_json({"zeta8": ["1", "0", "0"]})
    with pytest.raises(ValueError):
        scalar_from_json(["1", "0", "0", "0"])


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
                assert back.basis_bracket(i, j).coeffs == \
                    g.basis_bracket(i, j).coeffs, (name, i, j)


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
            assert back.algebra.basis_bracket(i, j).coeffs == \
                s.algebra.basis_bracket(i, j).coeffs


def test_docs_store_upper_triangle_only():
    doc = to_doc(so3())
    stored = {(row["left"], row["right"]) for row in doc["brackets"]}
    assert stored == {(0, 1), (0, 2), (1, 2)}
    # deligne mirror: [e2,e1] = -[e1,e2]
    g = from_doc(doc)
    assert g.basis_bracket(1, 0) == -g.basis_bracket(0, 1)


def test_super_mirror_uses_the_super_sign():
    # an odd self-paired letter: super antisymmetry negates with +1 sign
    s = unbraid(unitary_example())
    doc = to_doc(s)
    back = loads(json.dumps(doc))
    x1 = s.space.index("x1")
    y1 = s.space.index("y1")
    # odd-odd pair: [y,x] = +[x,y] under the super rule
    assert back.algebra.basis_bracket(y1, x1).coeffs == \
        back.algebra.basis_bracket(x1, y1).coeffs


def test_loading_never_checks_axioms():
    doc = to_doc(so3())
    doc["brackets"][0]["value"].append(
        {"basis": 1, "coeff": scalar_to_json(ONE)})
    broken = from_doc(doc)  # loads fine
    from bigla.lie import is_lie
    assert not is_lie(broken)


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
    save_path(so3(), str(target))
    assert dumps(load_path(str(target))) == text
