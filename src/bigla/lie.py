"""Bi-graded Lie and associative algebras over Q(zeta8).

The axiom checkers are diagnostics: they return sorted lists of violations
(empty means pass) rather than raising, so a CLI can render them and tests
can assert on exact residuals.  A Lie table carries its sign rule: the
Deligne rule by default, the parity rule for the super algebras the
unbraiding functor produces, and every checker judges a table by its own.
"""

from __future__ import annotations

from math import lcm
from typing import Callable, Collection, Mapping, Optional

from .errors import BiglaError, InputNotLie
from .linear import BiGradedSpace, BilinearMap, Vector
from .scalars import BiDegree, CycloScalar, _times, sign_deligne
from .sparse import add_scaled

SignRule = Callable[[BiDegree, BiDegree], int]
Table = Mapping[tuple[int, int], Vector]
Coeffs = dict[int, CycloScalar]


# one structure constant as int coordinates over a table's common
# denominator: (l, (a0, a1, a2, a3)) stands for the term a / d e_l
IntTerm = tuple[int, tuple[int, int, int, int]]


def _int_rows(table: Table) -> tuple[int, dict[tuple[int, int], list[IntTerm]]]:
    """The constants over one denominator d, the lcm of their denominators:
    d and, per pair (x, m), the terms (l, a) of e_x e_m, with a the int
    coordinates of the constant times d // its denominator.  The integral
    coordinates over one denominator of Cohen, "A Course in Computational
    Algebraic Number Theory" (1993), section 4.2."""
    d = lcm(*(c.d for v in table.values() for c in v.coeffs.values()))
    return d, {pair: [(l, c.c if c.d == d else tuple(a * (d // c.d) for a in c.c))
                      for l, c in v.coeffs.items()]
               for pair, v in table.items()}


def _add_times(acc: dict, key, w: int, a: tuple, b: tuple):
    """acc[key] += w a b in place, on the int coordinates of a and b."""
    p0, p1, p2, p3 = _times(a, b)
    r = acc.get(key)
    if r is None:
        acc[key] = [w * p0, w * p1, w * p2, w * p3]
    else:
        r[0] += w * p0
        r[1] += w * p1
        r[2] += w * p2
        r[3] += w * p3


class BiGradedLieAlgebra:
    def __init__(self, space: BiGradedSpace, bracket: BilinearMap, name: str = "",
                 sign: SignRule = sign_deligne):
        if bracket.space != space:
            raise BiglaError("bracket not defined on the algebra's space")
        self.space = space
        self.bracket = bracket
        self.name = name or space.name
        self.sign = sign

    @property
    def dim(self) -> int:
        return self.space.dim

    def __repr__(self):
        return f"BiGradedLieAlgebra({self.name or self.space.labels}, dim={self.dim})"


class BiGradedAssocAlgebra:
    def __init__(self, space: BiGradedSpace, product: BilinearMap,
                 unit: Optional[Vector] = None, name: str = ""):
        if product.space != space:
            raise BiglaError("product not defined on the algebra's space")
        self.space = space
        self.product = product
        self.unit = unit
        self.name = name or space.name

    @property
    def dim(self) -> int:
        return self.space.dim

    def check_associativity(self) -> list[tuple[int, int, int]]:
        """Triples (i,j,k), in order, where (e_i e_j) e_k != e_i (e_j e_k).

        Both sides are summed on the int rows (_int_rows), keyed by (i, j,
        k, l) for their term e_l: (e_i e_j) e_k adds from the walk (i, j)
        -> e_m -> (m, k), and e_i (e_j e_k) subtracts from the walk (j, k)
        -> e_m -> (i, m).  A triple fails where a key holds nonzero ints.
        """
        _, rows = _int_rows(self.product.constants)
        right: dict[int, list[int]] = {}
        left: dict[int, list[int]] = {}
        for x, m in rows:
            right.setdefault(x, []).append(m)
            left.setdefault(m, []).append(x)
        acc: dict[tuple[int, int, int, int], list[int]] = {}
        for (i, j), ij in rows.items():
            for m, a in ij:
                for k in right.get(m, ()):
                    for l, b in rows[(m, k)]:
                        _add_times(acc, (i, j, k, l), 1, a, b)
        for (j, k), jk in rows.items():
            for m, a in jk:
                for i in left.get(m, ()):
                    for l, b in rows[(i, m)]:
                        _add_times(acc, (i, j, k, l), -1, a, b)
        return sorted({key[:3] for key, r in acc.items() if any(r)})

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


def check_antisymmetry(g: BiGradedLieAlgebra) -> list[tuple[int, int]]:
    """Pairs (i,j), i <= j, violating [a,b] = -sign(a,b)[b,a] under g's rule.

    For i = j with sign +1 this forces [x,x] = 0; with sign -1 the relation
    is vacuous and the self-bracket is unconstrained.
    """
    bad = []
    degs = g.space.degrees
    pair = g.bracket.pair
    n = g.dim
    for i in range(n):
        for j in range(i, n):
            s = g.sign(degs[i], degs[j])
            if i == j:
                if s == 1 and pair(i, i):
                    bad.append((i, i))
                continue
            if pair(i, j) != pair(j, i).scale(-s):
                bad.append((i, j))
    return bad


def check_jacobi(g: BiGradedLieAlgebra) -> list[tuple[int, int, int]]:
    """Triples (a,b,c) violating the cyclic Jacobi identity twisted by g's
    sign rule."""
    return sorted(r for t in _residuals(g) for r in _rotations(t))


def _rotations(t: tuple[int, int, int]) -> tuple[tuple[int, int, int], ...]:
    """The orbit of (a,b,c) under the rotation (a,b,c) -> (c,a,b)."""
    a, b, c = t
    return (t,) if a == b == c else (t, (c, a, b), (b, c, a))


def jacobiator(g: BiGradedLieAlgebra, a: int, b: int, c: int) -> Vector:
    """sign(a,c)[a,[b,c]] + sign(c,b)[c,[a,b]] + sign(b,a)[b,[c,a]], with
    g's sign rule.

    The three terms are [x,[y,z]] with sign(x,z) for the three rotations
    (x,y,z) of (a,b,c); the signs are applied by adding or negating.  It is
    the per-triple oracle of the Jacobi sweep (_residuals), which sums the
    same terms on ints, and the residual jacobiator_alpha_check reports.
    """
    table = g.bracket.constants
    degs = g.space.degrees
    out: Coeffs = {}
    for x, y, z in ((a, b, c), (c, a, b), (b, c, a)):
        inner = table.get((y, z))
        if inner is not None:
            negate = g.sign(degs[x], degs[z]) == -1
            for m, k in inner.coeffs.items():
                v = table.get((x, m))
                if v is not None:
                    add_scaled(out, v.coeffs, -k if negate else k)
    return Vector(g.space, out)


def _residuals(g: BiGradedLieAlgebra) -> dict[tuple[int, int, int], Vector]:
    """The nonzero jacobiators, one per rotation orbit, keyed by the orbit's
    smallest triple.

    The rotation (a,b,c) -> (c,a,b) only reorders the three terms of a
    jacobiator, for any table and either sign rule, so one triple stands
    for its orbit: the twisted cyclic sum of Scheunert, "Generalized Lie
    algebras", J. Math. Phys. 20 (1979), taken term by term.  A term
    [x,[y,z]] is nonzero only if [y,z] has a term e_m and (x,m) is in the
    table, so one walk (y,z) -> e_m -> x over the int rows (_int_rows)
    visits every nonzero term once.  It adds sign(x,z) k v to its orbit's
    coefficient of e_l, for each term k e_m of [y,z] and v e_l of [x,m],
    over the square of the common denominator.  An orbit (a,a,a) is one
    triple whose jacobiator holds its one term three times.
    """
    d, rows = _int_rows(g.bracket.constants)
    degs = g.space.degrees
    sign = [[g.sign(p, q) for q in degs] for p in degs]
    left: dict[int, list[int]] = {}
    for x, m in rows:
        left.setdefault(m, []).append(x)
    acc: dict[tuple[tuple[int, int, int], int], list[int]] = {}
    for (y, z), inner in rows.items():
        for m, k in inner:
            for x in left.get(m, ()):
                t = min((x, y, z), (y, z, x), (z, x, y))
                w = sign[x][z] * 3 if x == y == z else sign[x][z]
                for l, v in rows[(x, m)]:
                    _add_times(acc, (t, l), w, k, v)
    coeffs: dict[tuple[int, int, int], Coeffs] = {}
    den = d * d
    for (t, l), r in acc.items():
        if any(r):
            coeffs.setdefault(t, {})[l] = CycloScalar.from_coordinates(*r, den)
    return {t: Vector(g.space, c) for t, c in coeffs.items()}


def check_homogeneity(g: BiGradedLieAlgebra) -> list[tuple[int, int]]:
    return g.bracket.check_homogeneity()


def check_lie(g: BiGradedLieAlgebra, only: Collection[str] = ()) -> dict[str, list]:
    """Violations per Lie axiom under g's sign rule; only names the axioms
    to check (all when empty).  The checkers are looked up on each call, so
    a patched module global is the one that runs."""
    checks = {"homogeneity": check_homogeneity, "antisymmetry": check_antisymmetry,
              "jacobi": check_jacobi}
    return {name: run(g) for name, run in checks.items() if not only or name in only}


def require_lie(g: BiGradedLieAlgebra):
    report = check_lie(g)
    failures = {k: v for k, v in report.items() if v}
    if failures:
        raise InputNotLie(f"{g.name or 'algebra'} fails: " +
                          ", ".join(f"{k} at {v[:3]}" for k, v in failures.items()))


def commutator_lie(a: BiGradedAssocAlgebra) -> BiGradedLieAlgebra:
    """[x,y] = xy - (-1)^(eps(x).eps(y)) yx on a homogeneous associative algebra."""
    bad = a.product.check_homogeneity()
    if bad:
        raise BiglaError(f"product not homogeneous at pairs {bad[:5]}")
    bad3 = a.check_associativity()
    if bad3:
        raise BiglaError(f"product fails associativity at triples {bad3[:5]}")
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
