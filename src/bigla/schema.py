"""JSON round trip for the three algebra kinds.

Bracket tables store only left <= right; the loader synthesizes the mirror
entry with the sign rule belonging to the kind, which keeps files small and
makes hand-written inputs antisymmetric by construction.  Scalars are four
rational strings in the zeta8 basis.  Loading never runs axiom checks, so
defective tables can be loaded and then diagnosed.
"""

from __future__ import annotations

import json
from typing import Any, Union

from .equivalence import SuperLieAlgebraWithInvolution
from .lie import BiGradedAssocAlgebra, BiGradedLieAlgebra
from .linear import BilinearMap, BiGradedSpace, Vector
from .scalars import CycloScalar, degree, parse_rational, sign_deligne, sign_super
from .sparse import add_term

Algebra = Union[BiGradedLieAlgebra, BiGradedAssocAlgebra,
                SuperLieAlgebraWithInvolution]

KIND_LIE = "bigraded-lie"
KIND_ASSOC = "bigraded-assoc"
KIND_SUPER = "super-lie-involution"


def scalar_to_json(c: CycloScalar) -> dict[str, list[str]]:
    return {"zeta8": [str(q) for q in c.rationals()]}


# the component types a JSON scalar may spell, matched by exact type
_COMPONENT_TYPES = frozenset((str, int))


def scalar_from_json(obj: Any, seen: dict) -> CycloScalar:
    """The scalar {'zeta8': [c0, c1, c2, c3]}.  seen belongs to one load: it
    maps each component, and each 4-tuple of components, read so far to its
    value, so a repeated coefficient is parsed once.  Only a 4-tuple of
    exact str and int components is looked up: JSON true and 1.0 equal and
    hash like 1, so they take every check and fail it."""
    if not isinstance(obj, dict) or "zeta8" not in obj:
        raise ValueError(f"scalar must be {{'zeta8': [...]}}, got {obj!r}")
    comps = obj["zeta8"]
    if not isinstance(comps, list) or len(comps) != 4:
        raise ValueError("zeta8 needs exactly four components")
    key = tuple(comps)
    if _COMPONENT_TYPES.issuperset(map(type, key)):
        c = seen.get(key)
        if c is not None:
            return c
    for q in comps:
        if isinstance(q, bool) or not isinstance(q, (str, int)):
            raise ValueError(f"rational component must be a string, got {q!r}")
        if q not in seen:
            seen[q] = parse_rational(q)
    c0, c1, c2, c3 = (seen[q] for q in comps)
    if type(c0) is int and type(c1) is int and type(c2) is int and type(c3) is int:
        c = CycloScalar.from_coordinates(c0, c1, c2, c3, 1)
    else:
        c = CycloScalar(c0, c1, c2, c3)
    seen[key] = c
    return c


def _index(k: Any, dim: int, what: str) -> int:
    # JSON true and 1.0 are not indices, though Python counts True as an int
    if type(k) is not int or not 0 <= k < dim:
        raise ValueError(f"{what} index {k!r} out of range")
    return k


def _space_to_json(space: BiGradedSpace) -> list[dict]:
    return [{"label": lab, "degree": [d.eps1, d.eps2]}
            for lab, d in zip(space.labels, space.degrees)]


def _space_from_json(basis: Any, name: str) -> BiGradedSpace:
    if not isinstance(basis, list) or not basis:
        raise ValueError("basis must be a nonempty list")
    entries = []
    for b in basis:
        if not isinstance(b, dict) or "label" not in b or "degree" not in b:
            raise ValueError(f"basis entry needs label and degree: {b!r}")
        label, d = b["label"], b["degree"]
        # the CLI addresses letters by label, in comma-separated lists
        if (not isinstance(label, str) or not label or "," in label
                or label != label.strip()):
            raise ValueError(f"label must be a nonempty string without ',' "
                             f"or edge spaces: {label!r}")
        if not isinstance(d, list) or len(d) != 2:
            raise ValueError(f"degree must be [eps1, eps2]: {d!r}")
        entries.append((label, degree(d[0], d[1])))
    return BiGradedSpace(entries, name=name)


def _value_to_json(v: Vector) -> list[dict]:
    return [{"basis": k, "coeff": scalar_to_json(c)}
            for k, c in sorted(v.coeffs.items())]


def _value_from_json(obj: Any, space: BiGradedSpace, seen: dict) -> Vector:
    if not isinstance(obj, list):
        raise ValueError(f"value must be a list of terms, got {obj!r}")
    coeffs = {}
    dim = space.dim
    for term in obj:
        if not isinstance(term, dict) or "basis" not in term or "coeff" not in term:
            raise ValueError(f"value term needs basis and coeff: {term!r}")
        k = _index(term["basis"], dim, "basis")
        add_term(coeffs, k, scalar_from_json(term["coeff"], seen))
    return Vector(space, coeffs)


def _table_to_json(m: BilinearMap, upper_only: bool) -> list[dict]:
    rows = []
    for (i, j), v in sorted(m.constants.items()):
        if upper_only and i > j:
            continue
        if v.coeffs:
            rows.append({"left": i, "right": j, "value": _value_to_json(v)})
    return rows


def _rows_from_json(rows: Any, space: BiGradedSpace, what: str, seen: dict
                    ) -> dict[tuple[int, int], Vector]:
    if not isinstance(rows, list):
        raise ValueError(f"{what} table must be a list")
    constants: dict[tuple[int, int], Vector] = {}
    dim = space.dim
    for row in rows:
        if not isinstance(row, dict) or not {"left", "right", "value"} <= row.keys():
            raise ValueError(f"{what} row needs left, right, value: {row!r}")
        i, j = _index(row["left"], dim, what), _index(row["right"], dim, what)
        if (i, j) in constants:
            raise ValueError(f"duplicate {what} entry ({i}, {j})")
        constants[(i, j)] = _value_from_json(row["value"], space, seen)
    return constants


def _table_from_json(rows: Any, space: BiGradedSpace, sign_rule, seen: dict
                     ) -> BilinearMap:
    """Read an upper-triangular table; mirror entries come from the sign
    rule, [j, i] = -s [i, j] with s = +-1.  For s = -1 the mirror is the
    stored vector itself: combinations are never changed in place.  For
    s = 1 each distinct coefficient is negated once."""
    constants = _rows_from_json(rows, space, "bracket", seen)
    negated: dict[CycloScalar, CycloScalar] = {}
    for (i, j) in list(constants):
        if i > j:
            raise ValueError(f"store only left <= right, got ({i}, {j})")
        if i < j:
            v = constants[(i, j)]
            if v.coeffs:
                if sign_rule(space.degrees[i], space.degrees[j]) == 1:
                    mirror = {}
                    for k, c in v.coeffs.items():
                        m = negated.get(c)
                        if m is None:
                            m = negated[c] = -c
                        mirror[k] = m
                    v = Vector(space, mirror)
                constants[(j, i)] = v
    return BilinearMap(space, constants)


def to_doc(a: Algebra) -> dict:
    # a Lie file reloads with Deligne mirrors: a super table needs its involution
    if isinstance(a, BiGradedLieAlgebra) and a.sign is sign_deligne:
        return {"kind": KIND_LIE, "name": a.name,
                "basis": _space_to_json(a.space),
                "brackets": _table_to_json(a.bracket, upper_only=True)}
    if isinstance(a, BiGradedAssocAlgebra):
        doc = {"kind": KIND_ASSOC, "name": a.name,
               "basis": _space_to_json(a.space),
               "products": _table_to_json(a.product, upper_only=False)}
        doc["unit"] = _value_to_json(a.unit) if a.unit is not None else None
        return doc
    if isinstance(a, SuperLieAlgebraWithInvolution):
        return {"kind": KIND_SUPER, "name": a.algebra.name,
                "basis": _space_to_json(a.space),
                "brackets": _table_to_json(a.algebra.bracket, upper_only=True),
                "involution": list(a.involution)}
    raise TypeError(f"cannot serialize {type(a).__name__}")


def from_doc(doc: Any) -> Algebra:
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    seen: dict = {}
    kind = doc.get("kind")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ValueError("name must be a string")
    if kind in (KIND_LIE, KIND_SUPER):
        sign = sign_super if kind == KIND_SUPER else sign_deligne
        space = _space_from_json(doc.get("basis"), name)
        bracket = _table_from_json(doc.get("brackets"), space, sign, seen)
        g = BiGradedLieAlgebra(space, bracket, name=name, sign=sign)
        if kind == KIND_LIE:
            return g
        return SuperLieAlgebraWithInvolution(g, doc.get("involution"))
    if kind == KIND_ASSOC:
        space = _space_from_json(doc.get("basis"), name)
        products = _rows_from_json(doc.get("products"), space, "product", seen)
        product = BilinearMap(space, products)
        unit = doc.get("unit")
        unit_vec = _value_from_json(unit, space, seen) if unit is not None else None
        return BiGradedAssocAlgebra(space, product, unit=unit_vec, name=name)
    raise ValueError(f"unknown kind {kind!r}")


def dumps(a: Algebra) -> str:
    return json.dumps(to_doc(a), indent=2, sort_keys=True) + "\n"


def loads(text: str) -> Algebra:
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested deeper than the parser allows") from None
    return from_doc(doc)


def load_path(path: str) -> Algebra:
    with open(path) as fh:
        return loads(fh.read())
