"""Ground-field functionals on the enveloping algebra.

A functional assigns a scalar to every normal word up to a truncation
length.  Convolution pushes the coproduct through a pair of functionals
with the crossing sign, read off the two supports without expanding any
coproduct and summed on ints, one scalar per word of the result.  The
commutativity verdict sums phi * psi - s psi * phi in one pass over the
pairs and builds no scalar: a pair (u, v) enters both orders at one word
with one count, signed sigma(u, v) and sigma(v, u), and for words sharing
no exterior letter sigma(u, v) sigma(v, u) = (-1)^(deg u . deg v), the
Deligne sign s of homogeneous functionals' shifts, so every such pair
adds 0 unless a sign is wrong.  The composition law on even vectors,
log(exp(x) exp(y)), is read off brackets in g by Varadarajan's
recursion; the truncated exp/log series in U(g) that it equals is kept in
the tests as their oracle.

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
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, lcm
from typing import Mapping, Optional

from .errors import BiglaError
from .catalog import MatrixRep
from .deformed import bound_trial_work
from .lie import BiGradedLieAlgebra, require_lie
from .linalg import Matrix
from .linear import LinearMap, Vector
from .scalars import DEGREE_OF_CODE, BiDegree, CycloScalar, ONE, sign_deligne
from .sparse import Combination
from .uea import MAX_TRUNCATION, EnvelopingAlgebra, UEAElement, Word


# a supported word as convolution reads it (Functional.support_by_length):
# key, ext, other, odd and below bit fields, and (power of zeta, int) terms
SupportRecord = tuple[int, int, int, int, int, tuple[tuple[int, int], ...]]


class Functional(Combination):
    """Scalar values on normal words of length <= truncation."""

    __slots__ = ("ctx", "truncation", "_shifts", "_by_length")

    def __init__(self, ctx: EnvelopingAlgebra, truncation: int,
                 coeffs: Mapping[Word, CycloScalar]):
        self.ctx = ctx
        self.truncation = truncation
        super().__init__(coeffs)
        self._shifts: Optional[set[BiDegree]] = None
        self._by_length: Optional[tuple[int, list[list[SupportRecord]]]] = None

    def base(self) -> tuple:
        return (self.ctx, self.truncation)

    # printed as the combination of the words it is nonzero on
    _order = UEAElement._order
    _name = UEAElement._name

    def shifts(self) -> set[BiDegree]:
        """Word degrees of the words convolution reads: the normal words of
        length <= truncation the functional is nonzero on, collected while
        support_by_length builds their records."""
        self.support_by_length()
        return self._shifts

    def shift(self) -> Optional[BiDegree]:
        s = self.shifts()
        return next(iter(s)) if len(s) == 1 else None

    def support_by_length(self) -> tuple[int, list[list[SupportRecord]]]:
        """The common denominator of the functional's values, and one
        record per normal word of length <= truncation it is nonzero on,
        bucketed by length; convolution reads the functional on nothing
        else, and the word degrees of these words are its shifts.  A
        functional commutativity_failures draws arrives with both, built
        as its values were drawn.  One built from coefficients computes
        them on the first call, and drops every word past the truncation
        or out of PBW order (EnvelopingAlgebra.violations).

        For a word u the record (_record) holds, per PBW rank r:
        - key: the count of the rank-r letter in the field of _count_width
          bits at r, so the key of u v sorted by rank is key u + key v;
        - ext and other: bit r set when u has the rank-r letter and it is,
          or is not, exterior;
        - odd: in 2 bits at 2r, the degree code of the rank-r letter when
          u has it an odd number of times, else 0;
        - below: in 2 bits at 2r, the XOR of the codes of u's letters of
          rank < r, the degree code of that prefix of u;
        and terms: the pairs (p, a) with a != 0 for which the value is the
        sum of a zeta^p over the common denominator.
        """
        if self._by_length is None:
            ctx, n = self.ctx, self.truncation
            fields, exterior, _ = _layout(ctx, _count_width(n))
            den = lcm(*(c.d for c in self.coeffs.values()))
            buckets: list[list[SupportRecord]] = [[] for _ in range(n + 1)]
            shifts, word_degree, violations = set(), ctx.word_degree, ctx.violations
            for u, c in self.coeffs.items():
                if len(u) > n or next(violations(u), None) is not None:
                    continue
                scale = den // c.d
                if c.is_rational():
                    terms = ((0, c.c[0] * scale),)
                else:
                    terms = tuple((p, cp * scale) for p, cp in enumerate(c.c) if cp)
                buckets[len(u)].append(_record(fields, exterior, u, terms))
                shifts.add(word_degree(u))
            self._shifts = shifts
            self._by_length = (den, buckets)
        return self._by_length


def _layout(ctx: EnvelopingAlgebra, width: int) -> tuple[list, int, list]:
    """The record layout of a context's letters at one count width, built
    once and kept on the context: per letter its count key, presence bit,
    code at its rank and code at every higher rank; the presence bits of
    the exterior letters; and per rank the shift of its count field and
    its letter."""
    by_width = ctx._layouts
    if width not in by_width:
        ones = (4 ** ctx.g.dim - 1) // 3
        fields: list = [()] * ctx.g.dim
        for r, k in enumerate(ctx.order):
            code, higher = ctx.codes[k], 2 * r + 2
            fields[k] = (1 << width * r, 1 << r, code << 2 * r,
                         code * (ones >> higher << higher))
        exterior = sum(1 << r for r, k in enumerate(ctx.order)
                       if ctx.exterior[k])
        by_width[width] = (fields, exterior,
                           [(width * r, k) for r, k in enumerate(ctx.order)])
    return by_width[width]


def _record(fields: list, exterior: int, u: Word,
            terms: tuple[tuple[int, int], ...]) -> SupportRecord:
    """The support record of the normal word u with value terms."""
    key = present = odd = below = 0
    for x in u:
        at_key, at_bit, at_rank, above = fields[x]
        key += at_key
        present |= at_bit
        odd ^= at_rank
        below ^= above
    return key, present & exterior, present & ~exterior, odd, below, terms


def _count_width(truncation: int) -> int:
    """Bits per rank in a count key: enough for a count of truncation, the
    most any word convolution builds can hold, so that keys add without
    carrying into the next rank."""
    return max(1, truncation.bit_length())


def _unshuffles(u_key: int, v_key: int, shared: int, width: int) -> int:
    """prod over the ranks r set in shared of C(u_r + v_r, v_r), with u_r
    and v_r the count fields of rank r in the two keys."""
    mask = (1 << width) - 1
    n = 1
    while shared:
        at = width * ((shared & -shared).bit_length() - 1)
        a, b = u_key >> at & mask, v_key >> at & mask
        n *= comb(a + b, b)
        shared &= shared - 1
    return n


def _accumulate(phi: Functional, psi: Functional, s: int
                ) -> tuple[int, list[dict[int, int]]]:
    """The pair loop of phi * psi - s psi * phi: the common denominator and,
    per power zeta^p for p = 0..3, the int coefficient of zeta^p on the word
    of each count key, with zeta^4 = -1 folded in.  A key may hold 0.

    A pair (u, v) of supported words reaches the same key with the same
    unshuffle count m in both orders, so it adds (sigma(u, v) - s sigma(v,
    u)) m phi(u) psi(v), where sigma(u, v) = (-1)^popcount(v odd & u below)
    is the crossing sign of convolution.  When u and v share no exterior
    letter, sigma(u, v) sigma(v, u) = (-1)^(deg u . deg v), the Deligne sign
    of their degrees; for homogeneous functionals and s that sign, every
    such pair agrees and adds 0, and is skipped before any count or update.
    s = 0 gives phi * psi."""
    phi._same(psi)
    n = phi.truncation
    width = _count_width(n)
    den_phi, left_buckets = phi.support_by_length()
    den_psi, right = psi.support_by_length()
    # acc[p][key]: the coefficient of zeta^p, p = 0..6, on the word of key
    acc: list[dict[int, int]] = [{} for _ in range(7)]
    for length, left in enumerate(left_buckets):
        # psi's words v with len(u) + len(v) <= truncation
        fitting = [rec for bucket in right[:n - length + 1] for rec in bucket]
        for u_key, u_ext, u_other, u_odd, u_below, u_terms in left:
            for v_key, v_ext, v_other, v_odd, v_below, v_terms in fitting:
                if u_ext & v_ext:
                    continue
                f = -1 if (v_odd & u_below).bit_count() & 1 else 1
                f -= -s if (u_odd & v_below).bit_count() & 1 else s
                if not f:
                    continue
                shared = u_other & v_other
                m = f * _unshuffles(u_key, v_key, shared, width) if shared else f
                key = u_key + v_key
                for p, a in u_terms:
                    ma = m * a
                    for q, b in v_terms:
                        row = acc[p + q]
                        row[key] = row.get(key, 0) + ma * b
    for p in (4, 5, 6):
        low = acc[p - 4]
        for key, c in acc[p].items():
            low[key] = low.get(key, 0) - c
    return den_phi * den_psi, acc[:4]


def convolution(phi: Functional, psi: Functional) -> Functional:
    """(phi * psi)(w) = sum over Delta(w) = sum c u (x) v of the signed
    product c phi(u) psi(v), summed over the pairs of supported words whose
    lengths sum to at most the truncation.

    Delta(w) of a normal word w is a sum over the unshuffles of w, since
    every subword of a normal word is normal.  So phi(u) psi(v) reaches only
    w = u v sorted by rank, when that w is normal (no exterior letter sits
    in both), once per unshuffle giving (u, v): prod over the letters of
    C(mult_w, mult_v).  Those differ only in how a repeated letter is split;
    repeated letters sit next to each other in w and pair to 0 with
    themselves, so all carry one sign.  With the sign of moving psi's slot v
    past the left slot u, it reduces mod 2 to (-1)^(deg x . deg y) over the
    letters x of v and y of u with rank x > rank y.  The Deligne pairing is
    bilinear over Z2, so that sum is sum over ranks r of mult_v(r) deg x_r .
    deg(u's letters below r), the parity of the shared bits of v's odd mask
    and u's below mask (support_by_length).

    The pairs are summed on ints by _accumulate: per power of zeta and
    count key, over the product of the two common denominators.  Then each
    key is decoded into its word and one scalar is built per word.
    """
    den, (r0, r1, r2, r3) = _accumulate(phi, psi, 0)
    ctx, n = phi.ctx, phi.truncation
    width = _count_width(n)
    mask = (1 << width) - 1
    letters = _layout(ctx, width)[2]
    values: dict[Word, CycloScalar] = {}
    for key in r0.keys() | r1.keys() | r2.keys() | r3.keys():
        c0, c1, c2, c3 = r0.get(key, 0), r1.get(key, 0), r2.get(key, 0), r3.get(key, 0)
        if c0 or c1 or c2 or c3:
            w: list[int] = []
            for at, k in letters:
                count = key >> at & mask
                if count:
                    w += (k,) * count
            values[tuple(w)] = CycloScalar.from_coordinates(c0, c1, c2, c3, den)
    return Functional(ctx, n, values)


def convolution_commutes(phi: Functional, psi: Functional) -> bool:
    """Deligne commutativity for homogeneous-shift functionals: phi * psi
    = s psi * phi with s the Deligne sign of the two shifts.  Raises
    BiglaError when either support spans other than one word degree.

    Both orders share their count keys and their common denominator, so
    the verdict is that every int row of phi * psi - s psi * phi is 0, and
    it builds no word and no scalar.  That difference is accumulated in one
    pass (_accumulate), where a pair adds (sigma(u, v) - s sigma(v, u)) times
    its term.  For words u, v of the two shifts sharing no exterior letter,
    sigma(u, v) sigma(v, u) = (-1)^(deg u . deg v) = s, so the two orders
    agree and the pair adds 0; only a pair whose crossing signs break that
    identity reaches the rows."""
    for name, f in (("first", phi), ("second", psi)):
        if f.shift() is None:
            raise BiglaError(
                f"the {name} functional has {len(f.shifts())} shifts, not one")
    _, rows = _accumulate(phi, psi, sign_deligne(phi.shift(), psi.shift()))
    return not any(any(row.values()) for row in rows)


# the values a random functional draws, -3..3, one rng.choice each
_SMALL_VALUES = tuple(CycloScalar.from_rational(v) for v in range(-3, 4))


def _random_functional(ctx: EnvelopingAlgebra, truncation: int,
                       codes: list[int], by_code: list[list[Word]],
                       rng: random.Random) -> Functional:
    """Small integers on a random subset of the words of one degree code,
    drawn in proportion to its words (codes, by_code: normal_words_by_code).
    The words are normal, the values ints and the code's degree the one
    shift, so each kept word's record is built as its value is drawn."""
    target = codes[rng.randrange(len(codes))]
    fields, exterior, _ = _layout(ctx, _count_width(truncation))
    vals = {}
    buckets: list[list[SupportRecord]] = [[] for _ in range(truncation + 1)]
    for w in by_code[target]:
        if rng.random() < 0.6:
            c = rng.choice(_SMALL_VALUES)
            if c:
                vals[w] = c
                buckets[len(w)].append(_record(fields, exterior, w, ((0, c.c[0]),)))
    phi = Functional(ctx, truncation, vals)
    phi._shifts = {DEGREE_OF_CODE[target]} if vals else set()
    phi._by_length = (1, buckets)
    return phi


def commutativity_failures(ctx: EnvelopingAlgebra, truncation: int,
                           trials: int, rng: random.Random) -> int:
    """Draw trials random pairs of homogeneous-shift functionals; the number
    of pairs that fail convolution_commutes.  Refused before any draw if
    truncation is above MAX_TRUNCATION, or if trials times the normal words
    up to the truncation pass deformed.MAX_TRIAL_WORK."""
    if truncation > MAX_TRUNCATION:
        raise BiglaError(f"truncation {truncation} above the bound {MAX_TRUNCATION}")
    codes, by_code = ctx.normal_words_by_code(truncation)
    bound_trial_work(trials, len(codes), "normal words")
    checked = failures = 0
    while checked < trials:
        phi = _random_functional(ctx, truncation, codes, by_code, rng)
        psi = _random_functional(ctx, truncation, codes, by_code, rng)
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
        raise BiglaError(
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
        raise BiglaError(f"order {n} above the bound {MAX_TRUNCATION}")
    for v in (x, y):
        if v.space != g.space:
            raise BiglaError("vector is not over this algebra's space")
        for d in v.homogeneous_parts():
            if d.parity != 0:
                raise BiglaError("exponential inputs must be parity-even")
    require_lie(g)
    br = g.bracket
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
        raise BiglaError("group element is not orthogonal: g g^T != 1")
    bad = []
    for k in sorted(rep.images):
        lhs = g @ rep.images[k] @ ginv
        rhs = rep.of_vector(expected.images[k])
        if lhs != rhs:
            bad.append(k)
    return bad
