"""Bi-graded Lie and associative algebras over Q(zeta8).

The axiom checkers are diagnostics: they return sorted lists of violations
(empty means pass) rather than raising, so a CLI can render them; the
residual of a failing Jacobi triple is what jacobiator returns.  A Lie
table carries its sign rule: the Deligne rule by default, the parity rule
for the super algebras the unbraiding functor produces, and every checker
judges a table by its own.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cache
from itertools import permutations
from math import lcm
from typing import Callable, Collection, Mapping, Optional

from .errors import BiglaError, InputNotLie
from .linear import BiGradedSpace, BilinearMap, Vector
from .scalars import DEGREE_OF_CODE, BiDegree, CycloScalar, sign_deligne
from .sparse import add_scaled

SignRule = Callable[[BiDegree, BiDegree], int]
Table = Mapping[tuple[int, int], Mapping[int, CycloScalar]]


# one structure constant as a packed int over its table's common
# denominator: (l, p) stands for the term a / d e_l, p packing the int
# coordinates of a (_pack)
IntTerm = tuple[int, int]
IntRows = tuple[int, dict[tuple[int, int], list[IntTerm]]]


def _int_rows(m: BilinearMap) -> IntRows:
    """m's constants packed into int rows (_pack), built on first use and
    kept on m: they depend only on the constants, which never change, so
    every verdict on m, under either sign rule, reads the same rows."""
    if m._packed is None:
        m._packed = _pack(m.constants)
    return m._packed


def _pack(table: Table) -> IntRows:
    """The constants over one denominator d, the lcm of their denominators,
    each packed into one int: the shift b and, per pair (x, m), the terms
    (l, p) of e_x e_m.  With a the int coordinates of the constant times
    d // its denominator, p = a0 + a1 R + a2 R^2 + a3 R^3 for R = 2^b, so a
    rational constant is the int a0.  These are the integral coordinates
    over one denominator of Cohen, "A Course in Computational Algebraic
    Number Theory" (1993), section 4.2, packed by Kronecker substitution
    (von zur Gathen-Gerhard, "Modern Computer Algebra", section 8.4): the
    product of two packed ints packs the product polynomial in zeta before
    zeta^4 = -1, so a verdict sums w p q on ints alone (_nonzero_keys).  A
    verdict only tests a sum for zero, so d itself is not kept.

    b bounds every coordinate.  Let s be the sum of |a_j| over all terms.
    Each |a_j| <= s < R / 2, so equal packed ints are equal constants.  A
    product of two terms has coordinates at most the product of their sums
    of |a_j|, and no verdict weighs one pair of terms by more than 6 in
    total at one key, so every coordinate of a sum, before or after zeta^4
    = -1, is at most 6 s^2 < R / 2.
    """
    d = lcm(*(c.d for v in table.values() for c in v.values()))
    rows: dict[tuple[int, int], list[IntTerm]] = {}
    # the terms off the rationals, packed once the shift is known
    wide = []
    s = 0
    for pair, v in table.items():
        row = rows[pair] = []
        for l, c in v.items():
            a0, a1, a2, a3 = a = c.c
            if c.d != d:
                f = d // c.d
                a0, a1, a2, a3 = a = a0 * f, a1 * f, a2 * f, a3 * f
            s += abs(a0) + abs(a1) + abs(a2) + abs(a3)
            if a1 or a2 or a3:
                wide.append((row, len(row), l, a))
            row.append((l, a0))
    b = (6 * s * s).bit_length() + 1
    for row, k, l, (a0, a1, a2, a3) in wide:
        row[k] = (l, a0 + ((a1 + ((a2 + (a3 << b)) << b)) << b))
    return b, rows


def _nonzero_keys(acc: dict[int, int], b: int) -> list[int]:
    """The keys of acc, a dict of sums of products of packed ints with
    shift b, whose sum is nonzero in Q(zeta8).

    A sum packs c0 + c1 R + ... + c6 R^6 with R = 2^b, and zeta^4 = -1
    folds it to r0 + r1 R + r2 R^2 + r3 R^3 modulo N = R^4 + 1.  Each
    |r_j| < R / 2 (_pack), so that fold lies strictly between -N / 2 and
    N / 2 and is 0 only where every r_j is: the sum is zero exactly where N
    divides it.
    """
    modulus = (1 << 4 * b) + 1
    return [key for key, p in acc.items() if p % modulus]


@cache
def _signs(sign: SignRule) -> tuple[tuple[int, ...], ...]:
    """sign on the degrees of two codes, by code."""
    return tuple(tuple(sign(p, q) for q in DEGREE_OF_CODE)
                 for p in DEGREE_OF_CODE)


@cache
def _jacobi_weights(sign: SignRule) -> tuple[int, ...]:
    """The weights of the Jacobi walk (_orbit_sums) under sign: sign(x, z)."""
    rows = _signs(sign)
    return tuple(rows[x][z] for x in range(4) for _ in range(4) for z in range(4)
                 for _ in range(4))


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
        -> e_m -> (i, m).  A triple fails where a key holds a nonzero sum
        (_nonzero_keys).
        """
        b, rows = _int_rows(self.product)
        n = self.space.dim
        right: dict[int, list[int]] = {}
        left: dict[int, list[int]] = {}
        for x, m in rows:
            right.setdefault(x, []).append(m)
            left.setdefault(m, []).append(x)
        acc: defaultdict[int, int] = defaultdict(int)
        for (i, j), ij in rows.items():
            for m, p in ij:
                for k in right.get(m, ()):
                    key = ((i * n + j) * n + k) * n
                    for l, q in rows[(m, k)]:
                        acc[key + l] += p * q
        for (j, k), jk in rows.items():
            for m, p in jk:
                for i in left.get(m, ()):
                    key = ((i * n + j) * n + k) * n
                    for l, q in rows[(i, m)]:
                        acc[key + l] -= p * q
        return sorted({_triple(key // n, n) for key in _nonzero_keys(acc, b)})

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
    is vacuous and the self-bracket is unconstrained.  The two sides are
    compared on the int rows (_int_rows); a pair with one side only fails.
    The verdict is kept on g's bracket per sign rule, so check_lie, whose
    Jacobi check reads it too, computes it once.
    """
    memo = g.bracket._antisymmetry
    bad = memo.get(g.sign)
    if bad is None:
        bad = memo[g.sign] = _antisymmetry_failures(g)
    return list(bad)


def _antisymmetry_failures(g: BiGradedLieAlgebra) -> list[tuple[int, int]]:
    _, rows = _int_rows(g.bracket)
    codes = g.space.codes
    sign = _signs(g.sign)
    bad = []
    for (i, j), ij in rows.items():
        if i < j:
            ji = rows.get((j, i))
            if ji is not None and sign[codes[i]][codes[j]] == 1:
                ji = [(l, -p) for l, p in ji]
            # a loaded mirror lists its letters in the order of its row
            if ji is None or ij != ji and dict(ij) != dict(ji):
                bad.append((i, j))
        elif i > j:
            if (j, i) not in rows:
                bad.append((j, i))
        elif sign[codes[i]][codes[i]] == 1:
            bad.append((i, i))
    return sorted(bad)


def check_jacobi(g: BiGradedLieAlgebra) -> list[tuple[int, int, int]]:
    """Triples (a,b,c) violating the cyclic Jacobi identity twisted by g's
    sign rule: the Jacobi walk (_orbit_sums) weighted by sign(x,z).

    When g passes check_antisymmetry and its sign rule is symmetric, the
    inner brackets of J(b,a,c) are those of J(a,b,c) times -sign, term by
    term, so J(b,a,c) = -s(a,b) s(a,c) s(b,c) J(a,b,c): a triple fails
    exactly when its transposes do, and the walk sums only the orbits in
    even cyclic order.  Any other table gets the full rotation walk.
    """
    half = _symmetric(g.sign) and not check_antisymmetry(g)
    return _orbit_sums(g, _jacobi_weights(g.sign), half)


@cache
def _symmetric(sign: SignRule) -> bool:
    """Whether sign(d, e) = sign(e, d) for every two degrees."""
    rows = _signs(sign)
    return all(rows[p][q] == rows[q][p] for p in range(4) for q in range(4))


def _rotations(t: tuple[int, int, int]) -> tuple[tuple[int, int, int], ...]:
    """The orbit of (a,b,c) under the rotation (a,b,c) -> (c,a,b)."""
    a, b, c = t
    return (t,) if a == b == c else (t, (c, a, b), (b, c, a))


def jacobiator(g: BiGradedLieAlgebra, a: int, b: int, c: int) -> Vector:
    """sign(a,c)[a,[b,c]] + sign(c,b)[c,[a,b]] + sign(b,a)[b,[c,a]], with
    g's sign rule.

    The three terms are [x,[y,z]] with sign(x,z) for the three rotations
    (x,y,z) of (a,b,c); the signs are applied by adding or negating.  It is
    the per-triple oracle of the Jacobi sweep (check_jacobi) and of the
    alpha walk (equivalence.alpha_failures), which sum the same terms on
    the int rows (_orbit_sums) but keep only which sums are nonzero, so it
    gives the residual of a triple they report; jacobiator_alpha_check
    reports it too.
    """
    table = g.bracket.constants
    degs = g.space.degrees
    out: dict[int, CycloScalar] = {}
    for x, y, z in ((a, b, c), (c, a, b), (b, c, a)):
        inner = table.get((y, z))
        if inner is not None:
            negate = g.sign(degs[x], degs[z]) == -1
            for m, k in inner.items():
                v = table.get((x, m))
                if v is not None:
                    add_scaled(out, v, -k if negate else k)
    return Vector(g.space, out)


def _orbit_sums(g: BiGradedLieAlgebra, weights: tuple[int, ...], half: bool
                ) -> list[tuple[int, int, int]]:
    """The triples, in lexicographic order, of every rotation orbit whose
    nested-bracket terms, weighted and summed on the int rows (_int_rows),
    leave a nonzero sum at some letter l of a term e_l (_nonzero_keys).

    The rotation (a,b,c) -> (c,a,b) only reorders the three terms of a
    jacobiator, for any table and either sign rule, so one triple stands
    for its orbit: the twisted cyclic sum of Scheunert, "Generalized Lie
    algebras", J. Math. Phys. 20 (1979), taken term by term.  A term
    [x,[y,z]] is nonzero only if [y,z] has a term e_m and (x,m) is in the
    table, so one walk (y,z) -> e_m -> x visits every nonzero term once.
    It adds w k v to its orbit's e_l, for each term k e_m of [y,z] and v
    e_l of [x,m], with w read from weights at 64 x + 16 y + 4 z + m on the
    degree codes of those letters; a term of weight 0 is skipped.  An orbit
    (a,a,a) is one triple whose jacobiator holds its one term three times.
    Orbits and keys are ints, t = a n^2 + b n + c and t n + l.

    With half, the caller knows that an orbit fails exactly when its
    transposes do (check_jacobi): the walk skips every term whose distinct
    x, y, z are in odd cyclic order, y < x < z or x < z < y or z < y < x,
    and reports every permutation of a failing orbit.
    """
    b, rows = _int_rows(g.bracket)
    n = g.space.dim
    n2 = n * n
    codes = g.space.codes
    # per letter m, the letters x with (x,m) in the table, each with its
    # weight offset and its parts of the orbit ints
    left: dict[int, list[tuple[int, int, int, int]]] = {}
    for x, m in rows:
        left.setdefault(m, []).append((x, 64 * codes[x], x * n2, x * n))
    acc: defaultdict[int, int] = defaultdict(int)
    for (y, z), inner in rows.items():
        yz = y * n + z
        yzn = yz * n
        zy = z * n2 + y
        cyz = 16 * codes[y] + 4 * codes[z]
        # the x the half walk skips: 1 for y < x < z, 2 for x < z or y < x
        # when z < y, 0 for none
        odd = 0 if not half or y == z else 1 if y < z else 2
        for m, k in inner:
            cm = cyz + codes[m]
            for x, cx, xn2, xn in left.get(m, ()):
                if odd and (y < x < z if odd == 1 else x < z or y < x):
                    continue
                w = weights[cx + cm]
                if not w:
                    continue
                if x == y == z:
                    w *= 3
                key = min(xn2 + yz, yzn + x, zy + xn) * n
                wk = w * k
                for l, v in rows[(x, m)]:
                    acc[key + l] += wk * v
    orbits = {key // n for key in _nonzero_keys(acc, b)}
    spread = permutations if half else _rotations
    return sorted({r for t in orbits for r in spread(_triple(t, n))})


def _triple(t: int, n: int) -> tuple[int, int, int]:
    """The triple (a,b,c) of t = a n^2 + b n + c."""
    ab, c = divmod(t, n)
    return (*divmod(ab, n), c)


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
