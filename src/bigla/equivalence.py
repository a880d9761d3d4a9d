"""The unbraiding equivalence between bi-graded and super Lie algebras.

A Z2xZ2-graded Lie algebra with the Deligne sign rule is the same data as a
Z2-graded (super) Lie algebra carrying an involutive automorphism: twist the
bracket by (-1)^(eps1 of left * eps2 of right), remember eps2 as the
diagonal involution sigma = (-1)^eps2, and read parity as eps1+eps2.  Both
directions of the twist are literally the same sign, so the round trip is
the identity on the nose.

The Jacobi defects on the two sides differ by the pure sign
alpha = eps1(a1)eps2(a2) + eps1(a2)eps2(a3) + eps1(a3)eps2(a1); this holds
term by term for any degree-homogeneous bracket, Lie or not (Jacobi and
antisymmetry play no role, but the inner bracket values must carry the
degree of their arguments for the twist sign to come out uniform), which
is what jacobiator_alpha_check certifies.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Collection

from .errors import BiglaError
from .lie import (BiGradedLieAlgebra, check_lie, jacobiator, _residuals, _rotations,
                  require_lie)
from .linear import BiGradedSpace, BilinearMap, Vector
from .scalars import BiDegree, sign_deligne, sign_super, sign_unbraid


@dataclass
class SuperLieAlgebraWithInvolution:
    """A super Lie algebra plus an involutive automorphism, with the original
    bi-degree bookkeeping retained on the space.  The involution is diagonal
    on the basis and stored as its eigenvalue +-1 at each basis vector."""

    algebra: BiGradedLieAlgebra
    involution: tuple[int, ...]

    def __post_init__(self):
        if self.algebra.sign is not sign_super:
            raise ValueError("a super Lie algebra needs the super sign rule")
        signs = self.involution
        if (not isinstance(signs, (list, tuple)) or len(signs) != self.dim
                or any(isinstance(s, bool) or s not in (1, -1) for s in signs)):
            raise ValueError("involution must list +-1 per basis element")
        self.involution = tuple(int(s) for s in signs)

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


def twist(g: BiGradedLieAlgebra) -> BiGradedLieAlgebra:
    """The same table with [a,b] scaled by (-1)^(eps1(a) eps2(b)), unchecked,
    under the super sign rule.  The input must carry the Deligne rule: the
    twist of a super table is no super companion."""
    if g.sign is not sign_deligne:
        raise BiglaError(f"{g.name or 'algebra'}: the twist needs the "
                         "Deligne sign rule")
    degs = g.space.degrees
    constants = {}
    for (i, j), v in g.bracket.constants.items():
        constants[(i, j)] = v.scale(sign_unbraid(degs[i], degs[j]))
    return BiGradedLieAlgebra(g.space, BilinearMap(g.space, constants),
                              name=f"{g.name}~s" if g.name else "", sign=sign_super)


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
    constants = {}
    for (i, j), v in s.algebra.bracket.constants.items():
        sign = sign_unbraid(rebuilt.degrees[i], rebuilt.degrees[j])
        constants[(i, j)] = Vector(rebuilt, dict(v.coeffs)).scale(sign)
    name = s.algebra.name
    if name.endswith("~s"):
        name = name[:-2]
    return BiGradedLieAlgebra(rebuilt, BilinearMap(rebuilt, constants), name=name)


@dataclass
class AlphaCheckResult:
    alpha_sign: int
    residual_bi: Vector
    residual_super: Vector

    @property
    def identity_holds(self) -> bool:
        return self.residual_bi == self.residual_super.scale(self.alpha_sign)


def jacobiator_alpha_check(g: BiGradedLieAlgebra, a: int, b: int, c: int
                           ) -> AlphaCheckResult:
    """Compare Jacobi defects of a bracket and its twist on one basis triple.

    Works for non-Lie brackets too, as long as the bracket values are
    degree-homogeneous; Jacobi and antisymmetry are not used.
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


def alpha_sweep(g: BiGradedLieAlgebra
                ) -> dict[tuple[int, int, int], AlphaCheckResult]:
    """jacobiator_alpha_check on every basis triple where the jacobiator of
    g or of its twist is nonzero, in lexicographic order; on every other
    triple both vanish and the identity holds.

    alpha and both jacobiators are invariant under the rotation
    (a,b,c) -> (c,a,b), so the three triples of an orbit share one result.
    """
    bi = _residuals(g)
    sup = _residuals(twist(g))
    zero = g.space.zero()
    degs = g.space.degrees
    out = {}
    for t in bi.keys() | sup.keys():
        result = AlphaCheckResult(_alpha_sign(degs, *t), bi.get(t, zero),
                                  sup.get(t, zero))
        for r in _rotations(t):
            out[r] = result
    return dict(sorted(out.items()))


def alpha_sign_counts(g: BiGradedLieAlgebra) -> tuple[int, int]:
    """How many basis triples have alpha sign +1 and how many -1, counted
    over the classes of degree triples weighted by their multiplicities."""
    mult = Counter(g.space.degrees)
    plus = sum(mult[a] * mult[b] * mult[c]
               for a in mult for b in mult for c in mult
               if _alpha_sign((a, b, c), 0, 1, 2) == 1)
    return plus, g.dim ** 3 - plus
