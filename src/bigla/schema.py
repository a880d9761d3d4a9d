"""JSON round trip for the three algebra kinds.

Bracket tables store only left <= right; the loader synthesizes the mirror
entry with the sign rule belonging to the kind, which keeps files small and
makes hand-written inputs antisymmetric by construction.  Scalars are four
rational strings in the zeta8 basis.  Loading never runs axiom checks, so
defective tables can be loaded and then diagnosed.

A file is the text json.dumps(doc, indent=2, sort_keys=True) writes for its
document, plus a newline.  dumps writes that text straight from the table,
and to_doc reads the document back from it.  The text is ASCII; a file is
read as bytes, which json.loads decodes itself (UTF-8, unless the bytes
show UTF-16 or UTF-32), whatever the locale.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Union

from .equivalence import SuperLieAlgebraWithInvolution
from .lie import BiGradedAssocAlgebra, BiGradedLieAlgebra
from .linear import BilinearMap, BiGradedSpace, Vector
from .scalars import (CycloScalar, _ratio, degree, parse_rational, sign_deligne,
                      sign_super)
from .sparse import add_term

Algebra = Union[BiGradedLieAlgebra, BiGradedAssocAlgebra,
                SuperLieAlgebraWithInvolution]

KIND_LIE = "bigraded-lie"
KIND_ASSOC = "bigraded-assoc"
KIND_SUPER = "super-lie-involution"


def _components(c: CycloScalar) -> tuple[str, ...]:
    """The coordinates c_j / d spelled as str(Fraction(c_j, d))."""
    d = c.d
    if d == 1:
        return tuple(map(str, c.c))
    return tuple(str(_ratio(n, d)) for n in c.c)


def scalar_to_json(c: CycloScalar) -> dict[str, list[str]]:
    return {"zeta8": list(_components(c))}


# the component types a JSON scalar may spell, matched by exact type
_COMPONENT_TYPES = frozenset((str, int))


def scalar_from_json(obj: Any, seen: dict) -> CycloScalar:
    """The scalar {'zeta8': [c0, c1, c2, c3]}.  seen belongs to one load: it
    maps each component, and each 4-tuple of components, read so far to its
    value, so a repeated coefficient is parsed once.  A 4-tuple found in
    seen is taken only when its components are exact str and int: JSON true
    and 1.0 equal and hash like 1, so they take every check and fail it."""
    if not isinstance(obj, dict) or "zeta8" not in obj:
        raise ValueError(f"scalar must be {{'zeta8': [...]}}, got {obj!r}")
    comps = obj["zeta8"]
    if not isinstance(comps, list) or len(comps) != 4:
        raise ValueError("zeta8 needs exactly four components")
    key = tuple(comps)
    try:
        c = seen.get(key)
    except TypeError:  # a list or object among the components
        c = None
    if c is not None:
        q0, q1, q2, q3 = key
        if (type(q0) is type(q1) is type(q2) is type(q3) is str
                or _COMPONENT_TYPES.issuperset(map(type, key))):
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


def _value_from_json(obj: Any, dim: int, seen: dict) -> dict[int, CycloScalar]:
    """The coefficient dict of a value, a list of terms on basis indices
    below dim; it holds no zero."""
    if not isinstance(obj, list):
        raise ValueError(f"value must be a list of terms, got {obj!r}")
    coeffs = {}
    for term in obj:
        if not isinstance(term, dict) or "basis" not in term or "coeff" not in term:
            raise ValueError(f"value term needs basis and coeff: {term!r}")
        k = term["basis"]
        # JSON true and 1.0 are not indices, though Python counts True as an int
        if type(k) is not int or not 0 <= k < dim:
            raise ValueError(f"basis index {k!r} out of range")
        add_term(coeffs, k, scalar_from_json(term["coeff"], seen))
    return coeffs


_ROW_KEYS = frozenset(("left", "right", "value"))


def _table_from_json(rows: Any, space: BiGradedSpace, what: str, seen: dict,
                     sign_rule=None) -> BilinearMap:
    """Read a table in one pass into coefficient dicts, the map's only
    store.  With a sign rule it is a bracket table: rows store only left <=
    right, and each row with left < right also gives its mirror [j, i] =
    -s [i, j], s = +-1.  For s = -1 the mirror is the stored dict itself:
    constants are never changed in place.  For s = 1 each distinct
    coefficient is negated once.  A row with left > right is reported
    after the pass, so a malformed row anywhere in the table is reported
    first."""
    if not isinstance(rows, list):
        raise ValueError(f"{what} table must be a list")
    constants: dict[tuple[int, int], dict[int, CycloScalar]] = {}
    misplaced: dict[tuple[int, int], None] = {}
    negated: dict[CycloScalar, CycloScalar] = {}
    empty = False
    dim = space.dim
    degrees = space.degrees
    for row in rows:
        if not isinstance(row, dict) or not _ROW_KEYS <= row.keys():
            raise ValueError(f"{what} row needs left, right, value: {row!r}")
        key = i, j = row["left"], row["right"]
        for k in key:
            if type(k) is not int or not 0 <= k < dim:
                raise ValueError(f"{what} index {k!r} out of range")
        if sign_rule is not None and i > j:
            if key in misplaced:
                raise ValueError(f"duplicate {what} entry ({i}, {j})")
            _value_from_json(row["value"], dim, seen)
            misplaced[key] = None
            continue
        if key in constants:
            raise ValueError(f"duplicate {what} entry ({i}, {j})")
        constants[key] = v = _value_from_json(row["value"], dim, seen)
        if not v:
            empty = True
            continue
        if sign_rule is None or i == j:
            continue
        if sign_rule(degrees[i], degrees[j]) == 1:
            mirror = {}
            for k, c in v.items():
                m = negated.get(c)
                if m is None:
                    m = negated[c] = -c
                mirror[k] = m
            v = mirror
        constants[(j, i)] = v
    for i, j in misplaced:
        raise ValueError(f"store only left <= right, got ({i}, {j})")
    if empty:
        constants = {key: v for key, v in constants.items() if v}
    return BilinearMap.of_coeffs(space, constants)


# "\n" and the indentation json.dumps(indent=2) writes at each nesting level
_IND = tuple("\n" + "  " * n for n in range(8))


def _list(items: list[str], level: int) -> str:
    """A JSON list at nesting level `level`, from its written items."""
    if not items:
        return "[]"
    inner = _IND[level + 1]
    return "[" + inner + ("," + inner).join(items) + _IND[level] + "]"


def _term_format(level: int) -> str:
    """The %-format of a value term in a list at nesting level `level`:
    {"basis": k, "coeff": {"zeta8": [c0, c1, c2, c3]}}."""
    i1, i2, i3, i4 = _IND[level + 1:level + 5]
    comps = ",".join([i4 + '"%s"'] * 4)
    return ("{" + i2 + '"basis": %d,' + i2 + '"coeff": {' + i3 + '"zeta8": ['
            + comps + i3 + "]" + i2 + "}" + i1 + "}")


# a bracket or product row's value sits at level 3, a unit at level 1
_ROW_TERM = _term_format(3)
_UNIT_TERM = _term_format(1)
_ROW = ("{" + _IND[3] + '"left": %d,' + _IND[3] + '"right": %d,' + _IND[3]
        + '"value": %s' + _IND[2] + "}")
_BASIS = ("{" + _IND[3] + '"degree": [' + _IND[4] + "%d," + _IND[4] + "%d"
          + _IND[3] + "]," + _IND[3] + '"label": %s' + _IND[2] + "}")


def _value_text(coeffs: dict[int, CycloScalar], level: int, term: str) -> str:
    return _list([term % (k, *_components(c)) for k, c in sorted(coeffs.items())],
                 level)


def _table_text(m: BilinearMap, upper_only: bool) -> str:
    return _list([_ROW % (i, j, _value_text(v, 3, _ROW_TERM))
                  for (i, j), v in sorted(m.constants.items())
                  if not (upper_only and i > j)], 1)


def _basis_text(space: BiGradedSpace) -> str:
    return _list([_BASIS % (d.eps1, d.eps2, _quote(lab))
                  for lab, d in zip(space.labels, space.degrees)], 1)


def dumps(a: Algebra) -> str:
    """The file text of a, written from its table and its scalars' int
    coordinates; labels and names take json's ASCII escapes."""
    # a Lie file reloads with Deligne mirrors: a super table needs its involution
    if isinstance(a, BiGradedLieAlgebra) and a.sign is sign_deligne:
        fields = (("basis", _basis_text(a.space)),
                  ("brackets", _table_text(a.bracket, True)),
                  ("kind", _quote(KIND_LIE)), ("name", _quote(a.name)))
    elif isinstance(a, BiGradedAssocAlgebra):
        unit = "null" if a.unit is None else _value_text(a.unit.coeffs, 1, _UNIT_TERM)
        fields = (("basis", _basis_text(a.space)), ("kind", _quote(KIND_ASSOC)),
                  ("name", _quote(a.name)),
                  ("products", _table_text(a.product, False)), ("unit", unit))
    elif isinstance(a, SuperLieAlgebraWithInvolution):
        fields = (("basis", _basis_text(a.space)),
                  ("brackets", _table_text(a.algebra.bracket, True)),
                  ("involution", _list([str(s) for s in a.involution], 1)),
                  ("kind", _quote(KIND_SUPER)), ("name", _quote(a.algebra.name)))
    else:
        raise TypeError(f"cannot serialize {type(a).__name__}")
    return "{" + _IND[1] + ("," + _IND[1]).join(
        f'"{key}": {text}' for key, text in fields) + _IND[0] + "}\n"


def to_doc(a: Algebra) -> dict:
    return json.loads(dumps(a))


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
        bracket = _table_from_json(doc.get("brackets"), space, "bracket", seen, sign)
        g = BiGradedLieAlgebra(space, bracket, name=name, sign=sign)
        if kind == KIND_LIE:
            return g
        return SuperLieAlgebraWithInvolution(g, doc.get("involution"))
    if kind == KIND_ASSOC:
        space = _space_from_json(doc.get("basis"), name)
        product = _table_from_json(doc.get("products"), space, "product", seen)
        unit = doc.get("unit")
        unit_vec = (None if unit is None
                    else Vector.of_nonzero(space, _value_from_json(unit, space.dim, seen)))
        return BiGradedAssocAlgebra(space, product, unit=unit_vec, name=name)
    raise ValueError(f"unknown kind {kind!r}")


def loads(text: Union[str, bytes]) -> Algebra:
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested deeper than the parser allows") from None
    return from_doc(doc)


def load_path(path: str) -> Algebra:
    # bytes: json.loads decodes UTF-8 itself, whatever the locale's encoding
    with open(path, "rb") as fh:
        return loads(fh.read())
