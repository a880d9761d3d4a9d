"""Ground-field functionals on the enveloping algebra.

A functional assigns a scalar to every normal word up to a truncation
length.  Convolution pushes the coproduct through a pair of functionals
with the crossing sign, read off the two supports without expanding any
coproduct.  The composition law on even vectors, log(exp(x) exp(y)), is
read off brackets in g by Varadarajan's recursion; the truncated exp/log
series in U(g) that it equals is kept in the tests as their oracle.

Equivariant functionals are read off in closed form.  For the
Harish-Chandra pair (g_0, g), U(g) is free as a left U(g_0)-module on the
exterior words, U(g) = U(g_0) (x) Lambda(g_1), so Hom_{U(g_0)}(U(g), k) is
the dual of Lambda(g_1): one indicator functional per exterior word (the
Kostant-Koszul description of a supergroup's coordinate ring; Kostant,
"Graded manifolds, graded Lie theory, and prequantization", 1977;
Carmeli-Caston-Fioresi, "Mathematical Foundations of Supersymmetry", 2011,
ch. 7).
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from typing import Mapping, Optional

from .errors import (AlgebraMismatch, DegreeViolation, NotOrthogonal, OddInput,
                     TruncationExceeded, TruncationMismatch, TruncationTooSmall)
from .catalog import MatrixRep
from .deformed import bound_trial_work
from .lie import BiGradedLieAlgebra, require_lie
from .linalg import Matrix
from .linear import LinearMap, Vector
from .scalars import BiDegree, CycloScalar, ONE, sign_deligne
from .sparse import Combination, add_term
from .uea import MAX_TRUNCATION, EnvelopingAlgebra, UEAElement, Word


# a supported word with its letter counts and value
SupportRecord = tuple[Word, Counter, CycloScalar]


class Functional(Combination):
    """Scalar values on normal words of length <= truncation."""

    __slots__ = ("ctx", "truncation", "_shifts", "_by_length")

    def __init__(self, ctx: EnvelopingAlgebra, truncation: int,
                 coeffs: Mapping[Word, CycloScalar]):
        self.ctx = ctx
        self.truncation = truncation
        super().__init__(coeffs)
        self._shifts: Optional[set[BiDegree]] = None
        self._by_length: Optional[list[list[SupportRecord]]] = None

    def base(self) -> tuple:
        return (self.ctx, self.truncation)

    def _same(self, other: "Functional"):
        if type(other) is not Functional or other.ctx is not self.ctx:
            raise AlgebraMismatch("functionals on different enveloping algebras")
        if other.truncation != self.truncation:
            raise TruncationMismatch(
                f"truncations differ: {self.truncation} vs {other.truncation}")

    # printed as the combination of the words it is nonzero on
    _order = UEAElement._order
    _name = UEAElement._name

    def shifts(self) -> set[BiDegree]:
        """Word degrees of the support, computed on the first call."""
        if self._shifts is None:
            self._shifts = {self.ctx.word_degree(w) for w in self.coeffs}
        return self._shifts

    def shift(self) -> Optional[BiDegree]:
        s = self.shifts()
        return next(iter(s)) if len(s) == 1 else None

    def support_by_length(self) -> list[list[SupportRecord]]:
        """The normal words of length <= truncation the functional is
        nonzero on, each with its letter counts and value, bucketed by
        length and computed on the first call; convolution reads the
        functional on nothing else."""
        if self._by_length is None:
            buckets: list[list[SupportRecord]] = [
                [] for _ in range(self.truncation + 1)]
            for u, c in self.coeffs.items():
                if len(u) <= self.truncation and self.ctx.is_normal(u):
                    buckets[len(u)].append((u, Counter(u), c))
            self._by_length = buckets
        return self._by_length


def _unshuffles(ctx: EnvelopingAlgebra, u_count: Counter,
                v_count: Counter) -> int:
    """The number of unshuffles of w = u v sorted by rank that give (u, v),
    prod_k C(mult_w(k), mult_u(k)); 0 when an exterior letter sits in both,
    because w is then not normal."""
    n = 1
    for k, m in v_count.items():
        if k in u_count:
            if ctx.exterior[k]:
                return 0
            n *= comb(u_count[k] + m, m)
    return n


def convolution(phi: Functional, psi: Functional) -> Functional:
    """(phi * psi)(w) = sum over Delta(w) = sum c u (x) v of the signed
    product c phi(u) psi(v), summed over the pairs of supported words whose
    lengths sum to at most the truncation.

    Delta(w) of a normal word w is a sum over the unshuffles of w, since
    every subword of a normal word is normal.  So phi(u) psi(v) reaches only
    w = u v sorted by rank, when that w is normal, once per unshuffle giving
    (u, v).  Those differ only in how a repeated letter is split; repeated
    letters sit next to each other in w and pair to 0 with themselves, so
    all carry one sign.  With the sign of moving psi's slot v past the left
    slot u, it reduces mod 2 to (-1)^(deg x . deg y) over the letters x of v
    and y of u with rank x > rank y.
    """
    phi._same(psi)
    ctx = phi.ctx
    rank, degs = ctx.rank, ctx.g.space.degrees
    right = psi.support_by_length()
    values: dict[Word, CycloScalar] = {}
    for length, left in enumerate(phi.support_by_length()):
        # psi's words v with len(u) + len(v) <= truncation
        fitting = [rec for bucket in right[:phi.truncation - length + 1]
                   for rec in bucket]
        for u, u_count, a in left:
            for v, v_count, b in fitting:
                n = _unshuffles(ctx, u_count, v_count)
                if not n:
                    continue
                c = a * b
                if n != 1:
                    c = c * n
                if sum(degs[x].pairing(degs[y]) for x in v for y in u
                       if rank[x] > rank[y]) % 2:
                    c = -c
                add_term(values, tuple(sorted(u + v, key=rank.__getitem__)), c)
    return Functional(ctx, phi.truncation, values)


def convolution_commutes(phi: Functional, psi: Functional) -> bool:
    """Deligne commutativity for homogeneous-shift functionals.  Raises
    DegreeViolation when either support spans other than one word degree."""
    for name, f in (("first", phi), ("second", psi)):
        if f.shift() is None:
            raise DegreeViolation(
                f"the {name} functional has {len(f.shifts())} shifts, not one")
    lhs = convolution(phi, psi)
    rhs = convolution(psi, phi)
    s = sign_deligne(phi.shift(), psi.shift())
    return lhs == (rhs if s == 1 else rhs.scale(-ONE))


def _random_functional(ctx: EnvelopingAlgebra, truncation: int,
                       degrees: list[BiDegree],
                       by_degree: Mapping[BiDegree, list[Word]],
                       rng: random.Random) -> Functional:
    """Small integers on a random subset of the words of one word degree.
    degrees holds the degree of every normal word up to the truncation, so
    a degree is drawn in proportion to its words, and by_degree the words
    of each degree in enumeration order."""
    target = degrees[rng.randrange(len(degrees))]
    vals = {}
    for w in by_degree[target]:
        if rng.random() < 0.6:
            vals[w] = CycloScalar.from_rational(rng.randint(-3, 3))
    return Functional(ctx, truncation, vals)


def commutativity_failures(ctx: EnvelopingAlgebra, truncation: int,
                           trials: int, rng: random.Random) -> int:
    """Draw trials random pairs of homogeneous-shift functionals; the number
    of pairs that fail convolution_commutes.  Refused before any draw if
    truncation is above MAX_TRUNCATION, or if trials times the normal words
    up to the truncation pass deformed.MAX_TRIAL_WORK."""
    if truncation > MAX_TRUNCATION:
        raise TruncationExceeded(
            f"truncation {truncation} above the bound {MAX_TRUNCATION}")
    words = ctx.normal_words_up_to(truncation)
    bound_trial_work(trials, len(words), "normal words")
    degrees = list(words.values())
    by_degree: dict[BiDegree, list[Word]] = {}
    for w, d in words.items():
        by_degree.setdefault(d, []).append(w)
    checked = 0
    failures = 0
    while checked < trials:
        phi = _random_functional(ctx, truncation, degrees, by_degree, rng)
        psi = _random_functional(ctx, truncation, degrees, by_degree, rng)
        if phi.shift() is None or psi.shift() is None:
            continue
        if not convolution_commutes(phi, psi):
            failures += 1
        checked += 1
    return failures


def equivariant_functionals(ctx: EnvelopingAlgebra,
                            truncation: int) -> list[Functional]:
    """Basis of functionals with phi(u w) = 0 for even letters u and words
    w of length < truncation.

    Closed form, no rewriting or elimination: U(g) = U(g_0) (x) Lambda(g_1)
    (Kostant 1977; Carmeli-Caston-Fioresi 2011, ch. 7), so, as the PBW
    order puts the even letters first, every normal word is an even prefix
    followed by an exterior suffix, and the functionals vanishing on
    g_0 U(g) are those supported on the exterior-only words.  The basis is
    one indicator functional, valued 1, per exterior word of length <=
    truncation, shortest first and then in PBW order.
    """
    exterior = [k for k in ctx.order if ctx.exterior[k]]
    return [Functional(ctx, truncation, {w: ONE})
            for k in range(min(truncation, len(exterior)) + 1)
            for w in combinations(exterior, k)]


def equivariant_hom_basis(ctx: EnvelopingAlgebra,
                          truncation: int) -> list[Functional]:
    """Equivariant basis with the stabilization guard: the count is only
    meaningful once the truncation dominates the number of exterior letters."""
    d_odd = sum(1 for e in ctx.exterior if e)
    if truncation < d_odd:
        raise TruncationTooSmall(
            f"truncation {truncation} below the exterior letter count {d_odd}")
    return equivariant_functionals(ctx, truncation)


# the composition law on even vectors

def _bernoulli(m: int) -> list[Fraction]:
    """B_0 .. B_m, with B_1 = -1/2."""
    b = [Fraction(1)]
    for k in range(1, m + 1):
        b.append(-sum(comb(k + 1, j) * b[j] for j in range(k)) / (k + 1))
    return b


def bch_product(g: BiGradedLieAlgebra, x: Vector, y: Vector, n: int) -> Vector:
    """log(exp(x) exp(y)) to order n, Z_1 + ... + Z_n, from brackets in g.

    Inputs must be parity-even.  Every even degree pairs to 0 with every
    other, so the even part is an ordinary Lie algebra and the classical
    recursion applies (Varadarajan, "Lie Groups, Lie Algebras, and Their
    Representations", 1984, 2.15): Z_1 = x + y and

        (m+1) Z_(m+1) = 1/2 [x - y, Z_m]
                        + sum over 1 <= p <= m/2 of B_2p/(2p)! S(2p, m),

    where S(q, m) sums [Z_k1, [Z_k2, ..., [Z_kq, x + y]]] over k1 + ... +
    kq = m, so S(0, 0) = x + y, S(0, m) = 0 for m > 0 and S(q, m) = sum over
    k of [Z_k, S(q - 1, m - k)].
    """
    if n > MAX_TRUNCATION:
        raise TruncationExceeded(f"order {n} above the bound {MAX_TRUNCATION}")
    for v in (x, y):
        if v.space != g.space:
            raise AlgebraMismatch("vector is not over this algebra's space")
        for d in v.homogeneous_parts():
            if d.parity != 0:
                raise OddInput("exponential inputs must be parity-even")
    require_lie(g)
    br = g.bracket_of
    zero, s, half_diff = g.space.zero(), x + y, (x - y).scale(Fraction(1, 2))
    bern = _bernoulli(n)
    z = [zero, s]
    nested = {(0, 0): s}
    for m in range(1, n):
        for q in range(1, m + 1):
            nested[q, m] = sum((br(z[k], nested.get((q - 1, m - k), zero))
                                for k in range(1, m - q + 2)), zero)
        zm = br(half_diff, z[m])
        for q in range(2, m + 1, 2):
            zm += nested[q, m].scale(bern[q] / factorial(q))
        z.append(zm.scale(Fraction(1, m + 1)))
    return sum(z[1:n + 1], zero)


def inner_automorphism_check(rep: MatrixRep, g: Matrix,
                             expected: LinearMap) -> list[int]:
    """Indices where g rho(x) g^(-1) differs from rho(expected(x)).  g must
    be orthogonal, which makes it invertible with g^(-1) = g^T."""
    ginv = g.transpose()
    if g @ ginv != Matrix.identity(g.nrows):
        raise NotOrthogonal("group element is not orthogonal: g g^T != 1")
    bad = []
    for k in sorted(rep.images):
        lhs = g @ rep.images[k] @ ginv
        rhs = rep.of_vector(expected.images[k])
        if lhs != rhs:
            bad.append(k)
    return bad
