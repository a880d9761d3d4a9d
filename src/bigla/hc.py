"""Module-valued functionals on the enveloping algebra.

A functional assigns a vector in a coefficient module to every normal word
up to a truncation length.  Convolution pushes the coproduct through a pair
of functionals with the crossing sign, and the truncated exp/log composition
recovers the first-order composition law on even vectors.

Equivariant functionals are read off in closed form.  For the
Harish-Chandra pair (g_0, g), U(g) is free as a left U(g_0)-module on the
exterior words, U(g) = U(g_0) (x) Lambda(g_1), so Hom_{U(g_0)}(U(g), k) is
the dual of Lambda(g_1): one indicator functional per exterior word (the
Kostant-Koszul description of a supergroup's coordinate ring; Kostant,
"Graded manifolds, graded Lie theory, and prequantization", 1977;
Carmeli-Caston-Fioresi, "Mathematical Foundations of Supersymmetry", 2011,
ch. 7).  The reading needs a PBW order that puts every even letter before
every exterior letter, as the default order of the enveloping algebra does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Optional

from .errors import (AlgebraMismatch, ModuleNotAlgebra, OddInput,
                     TruncationExceeded, TruncationMismatch,
                     TruncationTooSmall)
from .catalog import MatrixRep
from .linalg import Matrix
from .linear import BilinearMap, LinearMap, BiGradedSpace, Vector
from .scalars import BiDegree, CycloScalar, D00, ONE, sign_deligne
from .sparse import add_scaled, add_term
from .uea import (MAX_TRUNCATION, EnvelopingAlgebra, UEAElement, Word,
                  delta_word, primitive_vector, uea_multiply)


@dataclass(frozen=True)
class CoefficientModule:
    """A bigraded space, optionally an algebra so functionals can be
    convolved."""

    space: BiGradedSpace
    product: Optional[BilinearMap] = None
    unit: Optional[Vector] = None

    def multiply(self, a: Vector, b: Vector) -> Vector:
        if self.product is None:
            raise ModuleNotAlgebra("module carries no product")
        return self.product(a, b)


def trivial_module(g) -> CoefficientModule:
    """The ground field, on which every even letter acts by zero."""
    space = BiGradedSpace([("1", D00)], name="triv")
    product = BilinearMap(space, {(0, 0): space.basis_vector(0)})
    return CoefficientModule(space, product, space.basis_vector(0))


class Functional:
    """Values on normal words of length <= truncation."""

    __slots__ = ("ctx", "module", "truncation", "values")

    def __init__(self, ctx: EnvelopingAlgebra, module: CoefficientModule,
                 truncation: int, values: dict[Word, Vector]):
        self.ctx = ctx
        self.module = module
        self.truncation = truncation
        self.values = {w: v for w, v in values.items() if v.coeffs}

    def value(self, w: Word) -> Vector:
        return self.values.get(tuple(w), self.module.space.zero())

    def apply(self, a: UEAElement) -> Vector:
        if a.ctx is not self.ctx:
            raise AlgebraMismatch("element from a different enveloping algebra")
        if a.filtration() > self.truncation:
            raise TruncationExceeded(
                f"element filtration {a.filtration()} above {self.truncation}")
        out: dict[int, CycloScalar] = {}
        for w, c in a.terms.items():
            add_scaled(out, self.value(w).coeffs, c)
        return Vector(self.module.space, out)

    def __add__(self, other: "Functional") -> "Functional":
        _match(self, other)
        vals = dict(self.values)
        add_scaled(vals, other.values)
        return Functional(self.ctx, self.module, self.truncation, vals)

    def scale(self, c: CycloScalar) -> "Functional":
        return Functional(self.ctx, self.module, self.truncation,
                          {w: v.scale(c) for w, v in self.values.items()})

    def __eq__(self, other):
        if not isinstance(other, Functional):
            return NotImplemented
        return (self.ctx is other.ctx and self.module is other.module
                and self.truncation == other.truncation
                and self.values == other.values)

    def shifts(self) -> set[BiDegree]:
        """Degree shifts value-degree + word-degree over all nonzero parts."""
        out: set[BiDegree] = set()
        for w, v in self.values.items():
            wd = self.ctx.word_degree(w)
            for d in v.homogeneous_parts():
                out.add(d + wd)
        return out

    def shift(self) -> Optional[BiDegree]:
        s = self.shifts()
        return next(iter(s)) if len(s) == 1 else None


def _match(phi: Functional, psi: Functional):
    if phi.ctx is not psi.ctx:
        raise AlgebraMismatch("functionals on different enveloping algebras")
    if phi.module is not psi.module:
        raise AlgebraMismatch("functionals into different modules")
    if phi.truncation != psi.truncation:
        raise TruncationMismatch(
            f"truncations differ: {phi.truncation} vs {psi.truncation}")


def convolution(phi: Functional, psi: Functional) -> Functional:
    """(phi * psi)(w) = sum over Delta(w) of the signed module product.

    The sign moves each psi component, of degree value-degree + slot-degree,
    past the left slot u.
    """
    _match(phi, psi)
    if phi.module.product is None:
        raise ModuleNotAlgebra("convolution needs an algebra-valued module")
    ctx = phi.ctx
    module = phi.module
    values: dict[Word, Vector] = {}
    for n in range(phi.truncation + 1):
        for w in ctx.normal_words(n):
            acc: dict[int, CycloScalar] = {}
            for (u, v), c in delta_word(ctx, w).terms.items():
                left = phi.values.get(u)
                right = psi.values.get(v)
                if left is None or right is None:
                    continue
                du = ctx.word_degree(u)
                dv = ctx.word_degree(v)
                for d, part in right.homogeneous_parts().items():
                    s = sign_deligne(d + dv, du)
                    add_scaled(acc, module.multiply(left, part).coeffs,
                               c if s == 1 else -c)
            if acc:
                values[w] = Vector(module.space, acc)
    return Functional(ctx, module, phi.truncation, values)


def convolution_commutes(phi: Functional, psi: Functional) -> bool:
    """Deligne commutativity for homogeneous-shift functionals into a
    commutative module."""
    lhs = convolution(phi, psi)
    rhs = convolution(psi, phi)
    sp, ss = phi.shift(), psi.shift()
    assert sp is not None and ss is not None
    s = sign_deligne(sp, ss)
    return lhs == (rhs if s == 1 else rhs.scale(-ONE))


def _random_functional(ctx: EnvelopingAlgebra, module: CoefficientModule,
                       truncation: int, rng: random.Random) -> Functional:
    """Small integer multiples of the first module basis vector on a random
    subset of the words of one word degree."""
    words = ctx.normal_words_up_to(truncation)
    target = ctx.word_degree(words[rng.randrange(len(words))])
    vals = {}
    for w in words:
        if ctx.word_degree(w) == target and rng.random() < 0.6:
            c = CycloScalar.from_rational(Fraction(rng.randint(-3, 3)))
            if c:
                vals[w] = module.space.basis_vector(0).scale(c)
    return Functional(ctx, module, truncation, vals)


def commutativity_failures(ctx: EnvelopingAlgebra, module: CoefficientModule,
                           truncation: int, trials: int,
                           rng: random.Random) -> int:
    """Draw trials random pairs of homogeneous-shift functionals; the number
    of pairs that fail convolution_commutes."""
    if truncation > MAX_TRUNCATION:
        raise TruncationExceeded(
            f"truncation {truncation} above the bound {MAX_TRUNCATION}")
    checked = 0
    failures = 0
    while checked < trials:
        phi = _random_functional(ctx, module, truncation, rng)
        psi = _random_functional(ctx, module, truncation, rng)
        if phi.shift() is None or psi.shift() is None:
            continue
        if not convolution_commutes(phi, psi):
            failures += 1
        checked += 1
    return failures


def equivariant_functionals(ctx: EnvelopingAlgebra, module: CoefficientModule,
                            truncation: int) -> list[Functional]:
    """Basis of functionals into the trivial module with phi(u w) = 0 for
    even letters u and words w of length < truncation.

    Closed form, no rewriting or elimination: U(g) = U(g_0) (x) Lambda(g_1)
    (Kostant 1977; Carmeli-Caston-Fioresi 2011, ch. 7), so under an
    even-first PBW order every normal word is an even prefix followed by an
    exterior suffix, and the functionals vanishing on g_0 U(g) are those
    supported on the exterior-only words.  The basis is one indicator
    functional, valued module.unit, per exterior word of length <=
    truncation, shortest first and then in PBW order.  Raises ValueError
    when the context's order puts an exterior letter before an even one.
    """
    flags = [ctx.exterior[k] for k in ctx.order]
    if flags != sorted(flags):
        raise ValueError("the PBW order puts an exterior letter before an "
                         "even one")
    exterior = [k for k in ctx.order if ctx.exterior[k]]
    return [Functional(ctx, module, truncation, {w: module.unit})
            for k in range(min(truncation, len(exterior)) + 1)
            for w in combinations(exterior, k)]


def equivariant_hom_basis(ctx: EnvelopingAlgebra, module: CoefficientModule,
                          truncation: int) -> list[Functional]:
    """Equivariant basis with the stabilization guard: the count is only
    meaningful once the truncation dominates the number of exterior letters."""
    d_odd = sum(1 for e in ctx.exterior if e)
    if truncation < d_odd:
        raise TruncationTooSmall(
            f"truncation {truncation} below the exterior letter count {d_odd}")
    return equivariant_functionals(ctx, module, truncation)


# truncated exponential composition

TSeries = dict[int, UEAElement]


def _series_mul(a: TSeries, b: TSeries, n: int) -> TSeries:
    out: TSeries = {}
    for i, u in a.items():
        for j, v in b.items():
            if i + j > n:
                continue
            add_term(out, i + j, uea_multiply(u, v))
    return out


def _exp_series(ctx: EnvelopingAlgebra, x: Vector, n: int) -> TSeries:
    xe = ctx.from_vector(x)
    out: TSeries = {0: ctx.one()}
    power = ctx.one()
    for k in range(1, n + 1):
        power = uea_multiply(power, xe)
        out[k] = power.scale(Fraction(1, factorial(k)))
    return out


def _log_series(ctx: EnvelopingAlgebra, z: TSeries, n: int) -> TSeries:
    u = {k: v for k, v in z.items() if k > 0}
    out: TSeries = {}
    power: TSeries = {0: ctx.one()}
    for k in range(1, n + 1):
        power = _series_mul(power, u, n)
        sign = Fraction((-1) ** (k + 1), k)
        for t, elt in power.items():
            add_term(out, t, elt.scale(sign))
    return out


@dataclass
class CompositionResult:
    log: UEAElement
    vector: Optional[Vector] = field(default=None)

    @property
    def primitive(self) -> bool:
        return self.vector is not None


def bch_product(ctx: EnvelopingAlgebra, x: Vector, y: Vector,
                n: int) -> CompositionResult:
    """log(exp(x) exp(y)) to order n in the letter-count grading.

    Inputs must be parity-even so the exponentials are group-like; the
    result collects the homogeneous orders into one element, primitive by
    the composition theorem.
    """
    if n > MAX_TRUNCATION:
        raise TruncationExceeded(f"order {n} above the bound {MAX_TRUNCATION}")
    for v in (x, y):
        if v.space != ctx.g.space:
            raise AlgebraMismatch("vector is not over this algebra's space")
        for d in v.homogeneous_parts():
            if d.parity != 0:
                raise OddInput("exponential inputs must be parity-even")
    z = _series_mul(_exp_series(ctx, x, n), _exp_series(ctx, y, n), n)
    log = _log_series(ctx, z, n)
    terms: dict[Word, CycloScalar] = {}
    for elt in log.values():
        add_scaled(terms, elt.terms)
    total = UEAElement(ctx, terms)
    return CompositionResult(total, primitive_vector(total))


def inner_automorphism_check(rep: MatrixRep, g: Matrix,
                             expected: LinearMap) -> list[int]:
    """Indices where g rho(x) g^(-1) differs from rho(expected(x))."""
    ginv = g.inverse()
    bad = []
    for k in sorted(rep.images):
        lhs = g @ rep.images[k] @ ginv
        rhs = rep.of_vector(expected.images[k])
        if lhs != rhs:
            bad.append(k)
    return bad
