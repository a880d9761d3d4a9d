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

from dataclasses import dataclass
from typing import Collection

from .errors import AlgebraMismatch, NotEquivariant, NotEvenType
from .lie import (AlgebraMorphism, BiGradedLieAlgebra, check_morphism, jacobiator,
                  _lie_checks, _run_checks, jacobiators, require_lie)
from .linear import BiGradedSpace, BilinearMap, LinearMap, Vector
from .scalars import BiDegree, D00, D11, sign_super, sign_unbraid


@dataclass
class SuperLieAlgebraWithInvolution:
    """A super Lie algebra plus an involutive automorphism, with the original
    bi-degree bookkeeping retained on the space.  The involution is diagonal
    on the basis and stored as its eigenvalue +-1 at each basis vector."""

    algebra: BiGradedLieAlgebra
    involution: tuple[int, ...]

    def __post_init__(self):
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
        """Violations per super Lie axiom and of the involution; only names
        the checks to run (all when empty)."""
        checks = _lie_checks(self.algebra, sign_super)
        checks["involution"] = lambda: _involution_defects(self.algebra, self.involution)
        return _run_checks(checks, only)


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
    """The same table with [a,b] scaled by (-1)^(eps1(a) eps2(b)), unchecked."""
    degs = g.space.degrees
    constants = {}
    for (i, j), v in g.bracket.constants.items():
        constants[(i, j)] = v.scale(sign_unbraid(degs[i], degs[j]))
    return BiGradedLieAlgebra(g.space, BilinearMap(g.space, constants),
                              name=f"{g.name}~s" if g.name else "")


def unbraid(g: BiGradedLieAlgebra) -> SuperLieAlgebraWithInvolution:
    """Twist a bi-graded Lie algebra into its super companion.

    [a,b]_s = (-1)^(eps1(a) eps2(b)) [a,b], with sigma = (-1)^eps2 attached.
    Raises InputNotLie if g fails its own axioms.
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
        residual_super=jacobiator(twist(g), a, b, c, sign_super),
    )


def _alpha_sign(degs, a: int, b: int, c: int) -> int:
    alpha = (degs[a].eps1 * degs[b].eps2
             + degs[b].eps1 * degs[c].eps2
             + degs[c].eps1 * degs[a].eps2) % 2
    return -1 if alpha else 1


def alpha_sweep(g: BiGradedLieAlgebra
                ) -> dict[tuple[int, int, int], AlphaCheckResult]:
    """jacobiator_alpha_check on every basis triple, in lexicographic order,
    from one Jacobi sweep of g and one of its twist."""
    degs = g.space.degrees
    return {t: AlphaCheckResult(_alpha_sign(degs, *t), bi, sup)
            for (t, bi), (_, sup) in zip(jacobiators(g),
                                         jacobiators(twist(g), sign_super))}


@dataclass
class SuperMorphism:
    source: SuperLieAlgebraWithInvolution
    target: SuperLieAlgebraWithInvolution
    map: LinearMap


def morphism_transfer(phi: AlgebraMorphism) -> SuperMorphism:
    """View a bi-graded morphism as a morphism of the unbraided algebras.

    The twist signs depend only on degrees, which phi preserves, so the same
    linear map intertwines the twisted brackets and the involutions.  Checked,
    not assumed: NotEquivariant on an involution mismatch, AlgebraMismatch if
    the super bracket property fails.
    """
    src = unbraid(phi.source)
    tgt = unbraid(phi.target)
    for k in range(src.dim):
        if any(tgt.involution[m] != src.involution[k] for m in phi.map.images[k].coeffs):
            raise NotEquivariant(
                f"phi does not intertwine the involutions at {src.space.labels[k]}")
    bad = check_morphism(AlgebraMorphism(src.algebra, tgt.algebra, phi.map))
    if bad:
        raise AlgebraMismatch(f"transferred map fails the super bracket at {bad[:5]}")
    return SuperMorphism(src, tgt, phi.map)


def cartan_sign_flip(g: BiGradedLieAlgebra) -> BiGradedLieAlgebra:
    """Negate the g11 x g11 brackets of an algebra concentrated in degrees
    (0,0) and (1,1).  Sends so3 to so12 and is its own inverse."""
    for d in g.space.degrees:
        if d not in (D00, D11):
            raise NotEvenType("sign flip needs an algebra of even type")
    degs = g.space.degrees
    constants = {}
    for (i, j), v in g.bracket.constants.items():
        if degs[i] == D11 and degs[j] == D11:
            v = -v
        constants[(i, j)] = v
    return BiGradedLieAlgebra(g.space, BilinearMap(g.space, constants),
                              name=f"{g.name}-flip" if g.name else "")
