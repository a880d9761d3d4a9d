"""Bi-graded Lie and associative algebras over Q(zeta8).

The axiom checkers are diagnostics: they return sorted lists of violations
(empty means pass) rather than raising, so a CLI can render them and tests
can assert on exact residuals.  The sign rule is a parameter; the same
checkers validate Deligne-braided algebras and, with the parity sign, the
super algebras the unbraiding functor produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Iterator, Mapping, Optional, Sequence

from .errors import (AlgebraMismatch, DegreeViolation, InputNotLie, NotAssociative,
                     NotClosed, NotEvenType, SpaceMismatch)
from .linear import BiGradedSpace, BilinearMap, LinearMap, Vector
from .scalars import BiDegree, CycloScalar, D00, D11, sign_deligne
from .sparse import add_scaled, add_term

SignRule = Callable[[BiDegree, BiDegree], int]
Table = Mapping[tuple[int, int], Vector]
Coeffs = dict[int, CycloScalar]


def _left_times(table: Table, x: int, coeffs: Coeffs) -> Coeffs:
    """e_x * v, read off a structure table; v and the result are
    coefficient dicts."""
    out: Coeffs = {}
    for m, c in coeffs.items():
        v = table.get((x, m))
        if v is not None:
            add_scaled(out, v.coeffs, c)
    return out


class BiGradedLieAlgebra:
    def __init__(self, space: BiGradedSpace, bracket: BilinearMap, name: str = ""):
        if bracket.space != space:
            raise SpaceMismatch("bracket not defined on the algebra's space")
        self.space = space
        self.bracket = bracket
        self.name = name or space.name

    @property
    def dim(self) -> int:
        return self.space.dim

    def bracket_of(self, a: Vector, b: Vector) -> Vector:
        return self.bracket(a, b)

    def basis_bracket(self, i: int, j: int) -> Vector:
        return self.bracket.pair(i, j)

    def __repr__(self):
        return f"BiGradedLieAlgebra({self.name or self.space.labels}, dim={self.dim})"


class BiGradedAssocAlgebra:
    def __init__(self, space: BiGradedSpace, product: BilinearMap,
                 unit: Optional[Vector] = None, name: str = ""):
        if product.space != space:
            raise SpaceMismatch("product not defined on the algebra's space")
        self.space = space
        self.product = product
        self.unit = unit
        self.name = name or space.name

    @property
    def dim(self) -> int:
        return self.space.dim

    def mul(self, a: Vector, b: Vector) -> Vector:
        return self.product(a, b)

    def check_associativity(self) -> list[tuple[int, int, int]]:
        """Triples (i,j,k), in order, where (e_i e_j) e_k != e_i (e_j e_k)."""
        table = self.product.constants
        bad = []
        n = self.space.dim
        for i in range(n):
            for j in range(n):
                ij = table.get((i, j))
                for k in range(n):
                    left: Coeffs = {}
                    for m, c in (ij.coeffs.items() if ij else ()):
                        v = table.get((m, k))
                        if v is not None:
                            add_scaled(left, v.coeffs, c)
                    jk = table.get((j, k))
                    right = _left_times(table, i, jk.coeffs) if jk else {}
                    if left != right:
                        bad.append((i, j, k))
        return bad

    def check_unit(self) -> list[int]:
        if self.unit is None:
            return []
        bad = []
        for k in range(self.space.dim):
            e = self.space.basis_vector(k)
            if self.product(self.unit, e) != e or self.product(e, self.unit) != e:
                bad.append(k)
        return bad

    def __repr__(self):
        return f"BiGradedAssocAlgebra({self.name or self.space.labels}, dim={self.dim})"


@dataclass
class AlgebraMorphism:
    source: BiGradedLieAlgebra
    target: BiGradedLieAlgebra
    map: LinearMap

    def __post_init__(self):
        if self.map.source != self.source.space or self.map.target != self.target.space:
            raise AlgebraMismatch("morphism map does not connect the given algebras")


def check_antisymmetry(g: BiGradedLieAlgebra, sign: SignRule = sign_deligne
                       ) -> list[tuple[int, int]]:
    """Pairs (i,j), i <= j, violating [a,b] = -sign(a,b)[b,a].

    For i = j with sign +1 this forces [x,x] = 0; with sign -1 the relation
    is vacuous and the self-bracket is unconstrained.
    """
    bad = []
    degs = g.space.degrees
    n = g.dim
    for i in range(n):
        for j in range(i, n):
            s = sign(degs[i], degs[j])
            if i == j:
                if s == 1 and g.basis_bracket(i, i):
                    bad.append((i, i))
                continue
            if g.basis_bracket(i, j) != g.basis_bracket(j, i).scale(-s):
                bad.append((i, j))
    return bad


def check_jacobi(g: BiGradedLieAlgebra, sign: SignRule = sign_deligne
                 ) -> list[tuple[int, int, int]]:
    """Triples (a,b,c) violating the sign-twisted cyclic Jacobi identity."""
    return [t for t, residual in jacobiators(g, sign) if residual]


def _nested(table: Table, x: int, y: int, z: int) -> Coeffs:
    """[e_x,[e_y,e_z]] as a coefficient dict."""
    inner = table.get((y, z))
    return _left_times(table, x, inner.coeffs) if inner else {}


def jacobiator(g: BiGradedLieAlgebra, a: int, b: int, c: int,
               sign: SignRule = sign_deligne,
               nested: Optional[Mapping[tuple[int, int, int], Coeffs]] = None
               ) -> Vector:
    """sign(a,c)[a,[b,c]] + sign(c,b)[c,[a,b]] + sign(b,a)[b,[c,a]].

    nested maps (x,y,z) to [e_x,[e_y,e_z]] as a coefficient dict, absent
    when zero; jacobiators passes the table its sweep shares.  Without it
    the three nested brackets are computed here.  The signs are applied by
    adding or negating.
    """
    keys = ((a, b, c), (c, a, b), (b, c, a))
    if nested is None:
        table = g.bracket.constants
        nested = {k: _nested(table, *k) for k in keys}
    degs = g.space.degrees
    signs = (sign(degs[a], degs[c]), sign(degs[c], degs[b]), sign(degs[b], degs[a]))
    out: Coeffs = {}
    for key, s in zip(keys, signs):
        for k, v in nested.get(key, {}).items():
            add_term(out, k, v if s == 1 else -v)
    return Vector(g.space, out)


def jacobiators(g: BiGradedLieAlgebra, sign: SignRule = sign_deligne
                ) -> Iterator[tuple[tuple[int, int, int], Vector]]:
    """((a,b,c), jacobiator(g, a, b, c, sign)) for every basis triple, in
    lexicographic order.

    Each nested bracket [e_x,[e_y,e_z]] enters three jacobiators; the sweep
    computes it once and hands the table to jacobiator, keeping it only
    while the sweep runs.
    """
    table = g.bracket.constants
    n = g.dim
    nested = {}
    for (y, z), inner in table.items():
        for x in range(n):
            t = _left_times(table, x, inner.coeffs)
            if t:
                nested[(x, y, z)] = t
    for a in range(n):
        for b in range(n):
            for c in range(n):
                yield (a, b, c), jacobiator(g, a, b, c, sign, nested)


def check_homogeneity(g: BiGradedLieAlgebra) -> list[tuple[int, int]]:
    return g.bracket.check_homogeneity()


def _lie_checks(g: BiGradedLieAlgebra, sign: SignRule = sign_deligne
                ) -> dict[str, Callable[[], list]]:
    """The three Lie axiom checks, by name, not yet run."""
    return {
        "homogeneity": lambda: check_homogeneity(g),
        "antisymmetry": lambda: check_antisymmetry(g, sign),
        "jacobi": lambda: check_jacobi(g, sign),
    }


def _run_checks(checks: Mapping[str, Callable[[], list]],
                only: Collection[str] = ()) -> dict[str, list]:
    """Run the checks named in only, or all of them when only is empty."""
    return {name: run() for name, run in checks.items() if not only or name in only}


def check_lie(g: BiGradedLieAlgebra, sign: SignRule = sign_deligne,
              only: Collection[str] = ()) -> dict[str, list]:
    """Violations per Lie axiom; only names the axioms to check (all when
    empty)."""
    return _run_checks(_lie_checks(g, sign), only)


def is_lie(g: BiGradedLieAlgebra, sign: SignRule = sign_deligne) -> bool:
    return not any(check_lie(g, sign).values())


def require_lie(g: BiGradedLieAlgebra, sign: SignRule = sign_deligne):
    report = check_lie(g, sign)
    failures = {k: v for k, v in report.items() if v}
    if failures:
        raise InputNotLie(f"{g.name or 'algebra'} fails: " +
                          ", ".join(f"{k} at {v[:3]}" for k, v in failures.items()))


def commutator_lie(a: BiGradedAssocAlgebra) -> BiGradedLieAlgebra:
    """[x,y] = xy - (-1)^(eps(x).eps(y)) yx on a homogeneous associative algebra."""
    bad = a.product.check_homogeneity()
    if bad:
        raise DegreeViolation(f"product not homogeneous at pairs {bad[:5]}")
    bad3 = a.check_associativity()
    if bad3:
        raise NotAssociative(f"product fails associativity at triples {bad3[:5]}")
    degs = a.space.degrees
    n = a.space.dim
    constants = {}
    for i in range(n):
        for j in range(n):
            s = sign_deligne(degs[i], degs[j])
            v = a.product.pair(i, j) - a.product.pair(j, i).scale(s)
            if v:
                constants[(i, j)] = v
    return BiGradedLieAlgebra(a.space, BilinearMap(a.space, constants),
                              name=f"[{a.name}]" if a.name else "")


def subalgebra_on(g: BiGradedLieAlgebra, indices: Sequence[int],
                  name: str = "") -> BiGradedLieAlgebra:
    """Restrict to the span of the given basis indices; NotClosed if brackets leave it."""
    kept = list(indices)
    pos = {k: p for p, k in enumerate(kept)}
    sub = BiGradedSpace([(g.space.labels[k], g.space.degrees[k]) for k in kept],
                        name=name or f"{g.name}-sub")
    constants = {}
    for pi, i in enumerate(kept):
        for pj, j in enumerate(kept):
            v = g.basis_bracket(i, j)
            if not v:
                continue
            if not set(v.coeffs) <= set(pos):
                raise NotClosed(
                    f"[{g.space.labels[i]},{g.space.labels[j]}] leaves the span")
            constants[(pi, pj)] = Vector(sub, {pos[k]: c for k, c in v.coeffs.items()})
    return BiGradedLieAlgebra(sub, BilinearMap(sub, constants), name=sub.name)


def even_subalgebra(g: BiGradedLieAlgebra) -> BiGradedLieAlgebra:
    """The parity-0 part g_00 + g_11, a Lie subalgebra since the bracket
    has degree (0,0)."""
    kept = [k for k, d in enumerate(g.space.degrees) if d.parity == 0]
    return subalgebra_on(g, kept, name=f"{g.name}+" if g.name else "even")


@dataclass
class CartanPairReport:
    g00: list[int]
    g11: list[int]
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def cartan_pair(g: BiGradedLieAlgebra) -> CartanPairReport:
    """Split an algebra concentrated in degrees (0,0) and (1,1) into (k, p)
    and verify [k,k] <= k, [k,p] <= p, [p,p] <= k."""
    for d in g.space.degrees:
        if d not in (D00, D11):
            raise NotEvenType("algebra has components outside degrees (0,0), (1,1)")
    g00 = g.space.component(D00)
    g11 = g.space.component(D11)
    violations = []
    blocks = {(0, 0): set(g00), (0, 1): set(g11), (1, 0): set(g11), (1, 1): set(g00)}
    tags = {k: 0 for k in g00}
    tags.update({k: 1 for k in g11})
    for i in range(g.dim):
        for j in range(g.dim):
            v = g.basis_bracket(i, j)
            if not v:
                continue
            allowed = blocks[(tags[i], tags[j])]
            if not set(v.coeffs) <= allowed:
                violations.append(
                    f"[{g.space.labels[i]},{g.space.labels[j]}] leaves its block")
    return CartanPairReport(g00, g11, violations)


def check_morphism(phi: AlgebraMorphism) -> list[tuple[int, int]]:
    """Basis pairs where phi[a,b] != [phi a, phi b]."""
    bad = []
    n = phi.source.dim
    for i in range(n):
        for j in range(n):
            lhs = phi.map(phi.source.basis_bracket(i, j))
            rhs = phi.target.bracket_of(phi.map.images[i], phi.map.images[j])
            if lhs != rhs:
                bad.append((i, j))
    return bad
