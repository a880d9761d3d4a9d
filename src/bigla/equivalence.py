"""The unbraiding equivalence between bi-graded and super Lie algebras.

A Z2xZ2-graded Lie algebra with the Deligne sign rule is the same data as a
Z2-graded (super) Lie algebra carrying an involutive automorphism: twist the
bracket by (-1)^(eps1 of left * eps2 of right), remember eps2 as the
diagonal involution sigma = (-1)^eps2, and read parity as eps1+eps2.  Both
directions of the twist are literally the same sign, so the round trip is
the identity on the nose, and one signed copy (_twisted) builds both.

The Jacobi defects on the two sides differ by the pure sign
alpha = eps1(a1)eps2(a2) + eps1(a2)eps2(a3) + eps1(a3)eps2(a1); this holds
term by term for any degree-homogeneous bracket, Lie or not (Jacobi and
antisymmetry play no role, but the inner bracket values must carry the
degree of their arguments for the twist sign to come out uniform).
jacobiator_alpha_check certifies it on one triple from both jacobiators.
alpha_failures certifies it on every triple in one walk of g's int rows:
each nested term of (-1)^alpha J_g - J_twist is g's term times a factor
of -2, 0 or 2 read off four degrees, so no twisted table is built, the
terms of factor 0 cost no product, and an orbit fails where its packed sum
is not zero.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from typing import Collection, NamedTuple

from .errors import BiglaError
from .lie import BiGradedLieAlgebra, check_lie, jacobiator, _orbit_sums, require_lie
from .linear import BiGradedSpace, BilinearMap, Vector
from .scalars import DEGREE_OF_CODE, BiDegree, sign_deligne, sign_super, sign_unbraid


class SuperLieAlgebraWithInvolution:
    """A super Lie algebra plus an involutive automorphism, with the original
    bi-degree bookkeeping retained on the space.  The involution is diagonal
    on the basis and stored as its eigenvalue +-1 at each basis vector."""

    def __init__(self, algebra: BiGradedLieAlgebra, involution: tuple[int, ...]):
        if algebra.sign is not sign_super:
            raise ValueError("a super Lie algebra needs the super sign rule")
        if (not isinstance(involution, (list, tuple)) or len(involution) != algebra.dim
                or any(isinstance(s, bool) or s not in (1, -1) for s in involution)):
            raise ValueError("involution must list +-1 per basis element")
        self.algebra = algebra
        self.involution = tuple(int(s) for s in involution)

    @property
    def space(self):
        return self.algebra.space

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def check(self, only: Collection[str] = ()) -> dict[str, list]:
        """Violations per Lie axiom, under the algebra's own sign rule, and
        of the involution; only names the checks to run (all when empty)."""
        report = check_lie(self.algebra, only)
        if not only or "involution" in only:
            report["involution"] = _involution_defects(self.algebra, self.involution)
        return report


def _involution_defects(g: BiGradedLieAlgebra, signs: tuple[int, ...]) -> list:
    """Pairs whose bracket value leaves the eigenspace of sign_i * sign_j;
    a diagonal +-1 map is involutive, so nothing else can fail."""
    return [("not automorphism", i, j)
            for (i, j), v in sorted(g.bracket.constants.items())
            if any(signs[k] != signs[i] * signs[j] for k in v.coeffs)]


def involution_from_bidegree(g: BiGradedLieAlgebra) -> tuple[int, ...]:
    """The signs of the diagonal map sigma = (-1)^eps2, an automorphism of
    any degree-(0,0) bracket."""
    return tuple(-1 if d.eps2 else 1 for d in g.space.degrees)


def _require_deligne(g: BiGradedLieAlgebra):
    """The twist of a super table is no super companion, so the twist and
    the alpha identity read Deligne tables only."""
    if g.sign is not sign_deligne:
        raise BiglaError(f"{g.name or 'algebra'}: the twist needs the "
                         "Deligne sign rule")


def twist(g: BiGradedLieAlgebra) -> BiGradedLieAlgebra:
    """The same table with [a,b] scaled by (-1)^(eps1(a) eps2(b)), unchecked,
    under the super sign rule.  The input must carry the Deligne rule."""
    _require_deligne(g)
    return BiGradedLieAlgebra(g.space, _twisted(g.bracket, g.space),
                              name=f"{g.name}~s" if g.name else "", sign=sign_super)


def _twisted(m: BilinearMap, space: BiGradedSpace) -> BilinearMap:
    """m's constants on space, [a,b] times (-1)^(eps1(a) eps2(b)) read on
    space's degrees, with no scalar product: a value of sign +1 is the
    stored vector (rehomed to space) and one of sign -1 negates each
    coefficient."""
    degs = space.degrees
    constants = {}
    for (i, j), v in m.constants.items():
        if sign_unbraid(degs[i], degs[j]) == -1:
            v = Vector.of_nonzero(space, {k: -c for k, c in v.coeffs.items()})
        elif v.space is not space:
            v = Vector.of_nonzero(space, v.coeffs)
        constants[(i, j)] = v
    return BilinearMap(space, constants)


def unbraid(g: BiGradedLieAlgebra) -> SuperLieAlgebraWithInvolution:
    """Twist a bi-graded Lie algebra into its super companion.

    [a,b]_s = (-1)^(eps1(a) eps2(b)) [a,b], with sigma = (-1)^eps2 attached.
    Raises InputNotLie if g fails its own axioms and BiglaError if it
    already carries the super sign rule.
    """
    require_lie(g)
    return SuperLieAlgebraWithInvolution(twist(g), involution_from_bidegree(g))


def rebraid(s: SuperLieAlgebraWithInvolution) -> BiGradedLieAlgebra:
    """Invert unbraid: eps2 is the involution eigenvalue, eps1 = parity + eps2.

    The twist sign squares to one, so the same formula undoes it and
    rebraid(unbraid(g)) reproduces g exactly.
    """
    eps2 = [0 if sign == 1 else 1 for sign in s.involution]
    space = s.space
    rebuilt = BiGradedSpace(
        [(space.labels[k],
          BiDegree((space.degrees[k].parity + eps2[k]) % 2, eps2[k]))
         for k in range(space.dim)],
        name=space.name)
    return BiGradedLieAlgebra(rebuilt, _twisted(s.algebra.bracket, rebuilt),
                              name=s.algebra.name.removesuffix("~s"))


class AlphaCheckResult(NamedTuple):
    """The alpha sign of a triple and the jacobiators of g and of its twist
    there; the identity holds where residual_bi = alpha_sign residual_super."""

    alpha_sign: int
    residual_bi: Vector
    residual_super: Vector


def jacobiator_alpha_check(g: BiGradedLieAlgebra, a: int, b: int, c: int
                           ) -> AlphaCheckResult:
    """Compare Jacobi defects of a bracket and its twist on one basis triple.

    Works for non-Lie brackets too, as long as the bracket values are
    degree-homogeneous; Jacobi and antisymmetry are not used.  It is the
    per-triple oracle of alpha_failures.
    """
    return AlphaCheckResult(
        alpha_sign=_alpha_sign(g.space.degrees, a, b, c),
        residual_bi=jacobiator(g, a, b, c),
        residual_super=jacobiator(twist(g), a, b, c),
    )


def _alpha_sign(degs, a: int, b: int, c: int) -> int:
    alpha = (degs[a].eps1 * degs[b].eps2
             + degs[b].eps1 * degs[c].eps2
             + degs[c].eps1 * degs[a].eps2) % 2
    return -1 if alpha else 1


@cache
def _alpha_weights() -> tuple[int, ...]:
    """The weights of the alpha walk by the degree codes of x, y, z and m
    (lie._orbit_sums): alpha(x,y,z) s(x,z) - s_super(x,z) u(y,z) u(x,m),
    with s the Deligne sign and u the twist sign."""
    return tuple(_alpha_sign((x, y, z), 0, 1, 2) * sign_deligne(x, z)
                 - sign_super(x, z) * sign_unbraid(y, z) * sign_unbraid(x, m)
                 for x in DEGREE_OF_CODE for y in DEGREE_OF_CODE
                 for z in DEGREE_OF_CODE for m in DEGREE_OF_CODE)


def alpha_failures(g: BiGradedLieAlgebra) -> list[tuple[int, int, int]]:
    """The basis triples, in lexicographic order, where the jacobiator of g
    is not (-1)^alpha times that of its twist.

    The twist scales [y,z] by u(y,z) and [x,m] by u(x,m), so the term
    [x,[y,z]] of the twisted jacobiator is s_super(x,z) u(y,z) u(x,m) times
    that of g, term by term, and (-1)^alpha J_g - J_twist sums each term
    k v of g's walk (y,z) -> e_m -> x with the factor alpha s(x,z) -
    s_super(x,z) u(y,z) u(x,m), which is -2, 0 or 2.  One walk of g's rows
    (lie._orbit_sums) skips the terms of factor 0, every term of a
    homogeneous table, and an orbit fails where its sum is nonzero.  No
    twisted table and no residual vector is built.
    """
    _require_deligne(g)
    return _orbit_sums(g, _alpha_weights())


def alpha_sign_counts(g: BiGradedLieAlgebra) -> tuple[int, int]:
    """How many basis triples have alpha sign +1 and how many -1, counted
    over the classes of degree triples weighted by their multiplicities."""
    mult = Counter(g.space.degrees)
    plus = sum(mult[a] * mult[b] * mult[c]
               for a in mult for b in mult for c in mult
               if _alpha_sign((a, b, c), 0, 1, 2) == 1)
    return plus, g.dim ** 3 - plus
