"""Universal enveloping algebra with PBW rewriting and Hopf structure.

Words are tuples of basis indices.  The PBW order puts letters of degree
(0,0) first, then (1,1), then (1,0), then (0,1), each block in file order;
letters of the last two blocks square to (1/2)[x,x] and may not repeat in a
normal word.  Rewriting is leftmost-innermost with a per-context memo, so
repeated products and coproducts amortize.  Inside the context a degree is
a 2-bit code, so a word's degree is an XOR and every crossing sign is read
from one 4 x 4 pairing table; BiDegree stays at the interface.

The symmetric algebra Sym(g) has the same normal words, a word standing for
the monomial of its letters, and the same coproduct on them, so it needs no
context of its own: weyl_map takes a mapping from words to coefficients, and
the Hopf sweep reads the coproduct of Sym(g) from delta_word.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import comb, factorial
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import BiglaError
from .lie import BiGradedLieAlgebra, require_lie
from .scalars import DEGREE_OF_CODE, BiDegree, CycloScalar, ONE, ZERO, sign_deligne
from .sparse import Combination, add_scaled, add_term

Word = tuple[int, ...]

# longest word weyl_map symmetrizes, largest truncation conv-check samples,
# and highest order of the bracket series bch_product sums
MAX_TRUNCATION = 6

# most normal words, plus one per degree, that pbw_dims enumerates
MAX_PBW_WORDS = 10 ** 6

# longest raw word normal_form rewrites: so3's e3^12 e1^12 fills 13767 memo
# entries, and e3^30 e1^30 passes the recursion limit
MAX_WORD = 24

HALF = CycloScalar(Fraction(1, 2))

# the Deligne pairing of two degree codes (scalars.DEGREE_OF_CODE), the
# parity of their shared bits
PAIRING = tuple(tuple((a & b).bit_count() % 2 for b in range(4))
                for a in range(4))

# the PBW block of each code: (0,0) first, then (1,1), (1,0) and (0,1)
_BLOCK = (0, 3, 2, 1)


class EnvelopingAlgebra:
    """Rewriting context for U(g) over the block PBW order."""

    def __init__(self, g: BiGradedLieAlgebra):
        # rewriting reads the Deligne signs from PAIRING
        if g.sign is not sign_deligne:
            raise BiglaError(f"{g.name or 'algebra'}: the enveloping algebra "
                             "needs the Deligne sign rule")
        self.g = g
        degs = g.space.degrees
        codes = self.codes = g.space.codes
        self.order = tuple(sorted(range(g.dim), key=lambda k: (_BLOCK[codes[k]], k)))
        self.rank = {k: r for r, k in enumerate(self.order)}
        # self-pairing-1 letters square to (1/2)[x,x] and never repeat
        self.exterior = tuple(degs[k].pairing(degs[k]) == 1 for k in range(g.dim))
        # the PBW step rule, one entry per rank: the letter, its degree code
        # and the lowest rank that may follow it
        self.steps = tuple((k, codes[k], r + 1 if self.exterior[k] else r)
                           for r, k in enumerate(self.order))
        self._nf_memo: dict[Word, dict[Word, CycloScalar]] = {}
        # per count width, the letter layout of hc's convolution records
        self._layouts: dict[int, tuple] = {}
        self._lie_checked = False

    def word_code(self, w: Word) -> int:
        """The code of a word's degree, the XOR of its letters' codes."""
        codes = self.codes
        c = 0
        for k in w:
            c ^= codes[k]
        return c

    def word_degree(self, w: Word) -> BiDegree:
        return DEGREE_OF_CODE[self.word_code(w)]

    def violations(self, w: Word) -> Iterator[int]:
        """Positions p, left to right, where w[p] w[p+1] breaks the PBW order."""
        rank, exterior = self.rank, self.exterior
        for p in range(len(w) - 1):
            a, b = w[p], w[p + 1]
            if rank[a] > rank[b] or (a == b and exterior[a]):
                yield p

    def _rewrite_at(self, w: Word, p: int, nf) -> dict[Word, CycloScalar]:
        """One rewriting step at position p, the resulting words normalized
        by nf.  Both rewriting strategies share this step.  It is the only
        reader of the bracket, so the first step of a context raises
        InputNotLie unless the bracket is a Lie bracket."""
        if not self._lie_checked:
            require_lie(self.g)
            self._lie_checked = True
        a, b = w[p], w[p + 1]
        head, tail = w[:p], w[p + 2:]
        if a == b:
            # exterior letter squared: x x = (1/2)[x,x]
            out: dict[Word, CycloScalar] = {}
            for k, c in self.g.bracket.pair(a, a).coeffs.items():
                add_scaled(out, nf(head + (k,) + tail), HALF * c)
            return out
        codes = self.codes
        swapped = nf(head + (b, a) + tail)
        if not PAIRING[codes[a]][codes[b]]:
            out = dict(swapped)
        else:
            out = {word: -c for word, c in swapped.items()}
        for k, c in self.g.bracket.pair(a, b).coeffs.items():
            add_scaled(out, nf(head + (k,) + tail), c)
        return out

    def normal_form(self, w: Word) -> dict[Word, CycloScalar]:
        """Memoized leftmost-innermost normal form of a raw word."""
        w = tuple(w)
        cached = self._nf_memo.get(w)
        if cached is not None:
            return cached
        p = next(self.violations(w), None)
        result = {w: ONE} if p is None else self._rewrite_at(w, p, self.normal_form)
        self._nf_memo[w] = result
        return result

    def element(self, terms: Mapping[Word, CycloScalar]) -> "UEAElement":
        out: dict[Word, CycloScalar] = {}
        for w, c in terms.items():
            if c:
                add_scaled(out, self.normal_form(tuple(w)), c)
        return UEAElement(self, out)

    def one(self) -> "UEAElement":
        return UEAElement(self, {(): ONE})

    def word_from_labels(self, labels: Iterable[str]) -> Word:
        return tuple(self.g.space.index(lab) for lab in labels)

    def normal_words_up_to(self, n: int) -> dict[Word, BiDegree]:
        """Normal words of length <= n, shortest first and each length in
        lexicographic order of ranks, mapped to their word degrees.

        A prefix of a normal word is normal, so each length extends the
        words of the one before by the step table, and the first empty
        length ends the enumeration.
        """
        steps = self.steps
        out = {(): DEGREE_OF_CODE[0]}
        level = [((), 0, 0)]
        for _ in range(n):
            level = [(w + (k,), c ^ ck, nxt) for w, c, low in level
                     for k, ck, nxt in steps[low:]]
            if not level:
                break
            out.update((w, DEGREE_OF_CODE[c]) for w, c, _ in level)
        return out


def word_name(labels: Sequence[str], w: Word) -> str:
    return "*".join(labels[k] for k in w) if w else "1"


class UEAElement(Combination):
    """A finite combination of normal words."""

    __slots__ = ("ctx",)

    def __init__(self, ctx: EnvelopingAlgebra, coeffs: Mapping[Word, CycloScalar]):
        self.ctx = ctx
        super().__init__(coeffs)

    def base(self) -> tuple:
        return (self.ctx,)

    def __mul__(self, other) -> "UEAElement":
        if isinstance(other, UEAElement):
            return uea_multiply(self, other)
        if isinstance(other, (int, Fraction, CycloScalar)):
            return self.scale(other)
        return NotImplemented

    def _order(self, w: Word):
        return (-len(w), w)

    def _name(self, w: Word) -> Optional[str]:
        return word_name(self.ctx.g.space.labels, w) if w else None


def normal_form(ctx: EnvelopingAlgebra, word: Sequence[int]) -> UEAElement:
    """The normal form of a raw word; a word longer than MAX_WORD is
    refused before any rewriting."""
    if len(word) > MAX_WORD:
        raise BiglaError(f"word length {len(word)} above the bound {MAX_WORD}")
    return ctx.element({tuple(word): ONE})


def uea_multiply(a: UEAElement, b: UEAElement) -> UEAElement:
    """Product in U(g)."""
    a._same(b)
    out: dict[Word, CycloScalar] = {}
    for u, cu in a.coeffs.items():
        for v, cv in b.coeffs.items():
            add_scaled(out, a.ctx.normal_form(u + v), cu * cv)
    return UEAElement(a.ctx, out)


# randomized-pivot rewriting, for confluence certification

def normal_form_random(ctx: EnvelopingAlgebra, word: Sequence[int],
                       rng) -> dict[Word, CycloScalar]:
    """Normal form with the rewriting position chosen at random each time a
    word is first visited.  Confluence says this agrees with normal_form."""
    memo: dict[Word, dict[Word, CycloScalar]] = {}

    def nf(w: Word) -> dict[Word, CycloScalar]:
        got = memo.get(w)
        if got is not None:
            return got
        spots = list(ctx.violations(w))
        result = ctx._rewrite_at(w, rng.choice(spots), nf) if spots else {w: ONE}
        memo[w] = result
        return result

    return nf(tuple(word))


class TensorElement(Combination):
    """Sparse element of U(g)^(tensor n), words per slot, Deligne-signed."""

    __slots__ = ("ctx", "nslots")

    def __init__(self, ctx: EnvelopingAlgebra, nslots: int,
                 coeffs: Mapping[tuple[Word, ...], CycloScalar]):
        self.ctx = ctx
        self.nslots = nslots
        super().__init__(coeffs)

    def base(self) -> tuple:
        return (self.ctx, self.nslots)

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        """(u1 x ... x un)(v1 x ... x vn) with the Koszul sign from moving
        each v_i past the u_j with j > i."""
        self._same(other)
        ctx = self.ctx
        out: dict[tuple[Word, ...], CycloScalar] = {}
        code = ctx.word_code
        for us, cu in self.coeffs.items():
            ucodes = [code(u) for u in us]
            for vs, cv in other.coeffs.items():
                # the parity of the pairings of each v_i with the later u_j
                odd = 0
                for i in range(self.nslots):
                    row = PAIRING[code(vs[i])]
                    for j in range(i + 1, self.nslots):
                        odd ^= row[ucodes[j]]
                coeff = -(cu * cv) if odd else cu * cv
                slot_expansions = [ctx.normal_form(us[i] + vs[i])
                                   for i in range(self.nslots)]
                _spread(out, slot_expansions, coeff)
        return TensorElement(ctx, self.nslots, out)

    def flip(self) -> "TensorElement":
        """Swap the two slots with the Deligne sign (2-slot elements only)."""
        assert self.nslots == 2
        ctx = self.ctx
        out: dict[tuple[Word, ...], CycloScalar] = {}
        for (u, v), c in self.coeffs.items():
            odd = PAIRING[ctx.word_code(u)][ctx.word_code(v)]
            add_term(out, (v, u), -c if odd else c)
        return TensorElement(ctx, 2, out)

    def _order(self, ws: tuple[Word, ...]):
        return tuple((-len(w), w) for w in ws)

    def _name(self, ws: tuple[Word, ...]) -> tuple[str, ...]:
        labels = self.ctx.g.space.labels
        return tuple(word_name(labels, w) for w in ws)


def _spread(acc: dict, slot_expansions: list[dict[Word, CycloScalar]],
            coeff: CycloScalar):
    """Distribute a product of per-slot expansions into the accumulator."""
    combos: list[tuple[tuple[Word, ...], CycloScalar]] = [((), coeff)]
    for expansion in slot_expansions:
        combos = [(ws + (w,), c * cw) for ws, c in combos
                  for w, cw in expansion.items()]
    for ws, c in combos:
        add_term(acc, ws, c)


def _crossed(ctx: EnvelopingAlgebra, x: int, u: Word,
             c: CycloScalar) -> CycloScalar:
    """c times the sign of moving the letter x past the word u,
    (-1)^(deg x . deg u): the one crossing rule of the coproduct, the
    antipode and the symmetrization."""
    return -c if PAIRING[ctx.codes[x]][ctx.word_code(u)] else c


def delta_word(ctx: EnvelopingAlgebra, w: Word) -> TensorElement:
    """Coproduct of a normal word, folded over its letters from the right.

    Delta(x u) = (x (x) 1 + 1 (x) x) Delta(u): each term (u, v) gives (x u, v)
    and, with the sign of moving x past u, (u, x v).  Every subword of a
    normal word is normal, so no rewriting is needed.
    """
    terms: dict[tuple[Word, ...], CycloScalar] = {((), ()): ONE}
    for x in reversed(w):
        out: dict[tuple[Word, ...], CycloScalar] = {}
        for (u, v), c in terms.items():
            add_term(out, ((x,) + u, v), c)
            add_term(out, (u, (x,) + v), _crossed(ctx, x, u, c))
        terms = out
    return TensorElement(ctx, 2, terms)


def delta(a: UEAElement) -> TensorElement:
    ctx = a.ctx
    out: dict[tuple[Word, ...], CycloScalar] = {}
    for w, c in a.coeffs.items():
        add_scaled(out, delta_word(ctx, w).coeffs, c)
    return TensorElement(ctx, 2, out)


def delta_slot(t: TensorElement, slot: int) -> TensorElement:
    """Apply the coproduct inside one slot, yielding one more slot."""
    ctx = t.ctx
    out: dict[tuple[Word, ...], CycloScalar] = {}
    for ws, c in t.coeffs.items():
        expanded = delta_word(ctx, ws[slot])
        for pair, cc in expanded.coeffs.items():
            add_term(out, ws[:slot] + pair + ws[slot + 1:], c * cc)
    return TensorElement(ctx, t.nslots + 1, out)


def counit(a: UEAElement) -> CycloScalar:
    return a.coeffs.get((), ZERO)


def antipode(a: UEAElement) -> UEAElement:
    """S(x1...xm) = (-1)^m xm...x1, normalized, where the reversed word is
    built by moving each letter past the ones already placed."""
    ctx = a.ctx
    out: dict[Word, CycloScalar] = {}
    for w, c in a.coeffs.items():
        rev: Word = ()
        for x in w:
            c = _crossed(ctx, x, rev, c)
            rev = (x,) + rev
        add_scaled(out, ctx.normal_form(rev), -c if len(w) % 2 else c)
    return UEAElement(ctx, out)


def weyl_map(ctx: EnvelopingAlgebra,
             terms: Mapping[Word, CycloScalar]) -> UEAElement:
    """Symmetrization Sym(g) -> U(g) of a mapping from words to
    coefficients: w -> (1/m!) sum over the arrangements of its letters with
    Koszul signs.  A word need not be normal; one that repeats an exterior
    letter maps to 0.

    The arrangements are built from the right: inserting x after the first
    k letters of an arrangement of the later letters moves x past them.
    """
    out: dict[Word, CycloScalar] = {}
    for w, c in terms.items():
        m = len(w)
        if m > MAX_TRUNCATION:
            raise BiglaError(f"word length {m} above the bound {MAX_TRUNCATION}")
        arrangements: dict[Word, CycloScalar] = {(): ONE}
        for x in reversed(w):
            placed: dict[Word, CycloScalar] = {}
            for arr, ca in arrangements.items():
                for k in range(len(arr) + 1):
                    add_term(placed, arr[:k] + (x,) + arr[k:],
                             _crossed(ctx, x, arr[:k], ca))
            arrangements = placed
        c = c * Fraction(1, factorial(m))
        for arr, ca in arrangements.items():
            add_scaled(out, ctx.normal_form(arr), ca * c)
    return UEAElement(ctx, out)


HOPF_AXIOMS = ("antipode", "coassociativity", "cocommutativity", "counit",
               "multiplicativity", "weyl")


def hopf_failures(U: EnvelopingAlgebra, max_len: int
                  ) -> tuple[int, dict[str, list[tuple[Word, ...]]]]:
    """Check the Hopf structure on the normal words of length <= max_len.

    Returns the number of those words and, per axiom, the inputs where it
    fails: a 1-tuple (w,) of the word, or for multiplicativity the pair
    (u, v) with len(u) + len(v) <= max_len.  'weyl' is the
    coalgebra-morphism property of weyl_map.

    A normal word longer than MAX_TRUNCATION, which weyl_map refuses, is
    refused before any sweep.  There is one exactly when some letter may
    repeat or more than MAX_TRUNCATION letters may not.
    """
    fails: dict[str, list[tuple[Word, ...]]] = {key: [] for key in HOPF_AXIOMS}
    has_longer = not all(U.exterior) or sum(U.exterior) > MAX_TRUNCATION
    if max_len > MAX_TRUNCATION and has_longer:
        raise BiglaError(
            f"word length {MAX_TRUNCATION + 1} above the bound {MAX_TRUNCATION}")
    words = U.normal_words_up_to(max_len)
    for w in words:
        elt = U.element({w: ONE})
        dw = delta(elt)
        if delta_slot(dw, 0) != delta_slot(dw, 1):
            fails["coassociativity"].append((w,))
        # the counit of a normal word is 1 on () and 0 on every other word
        left = {v: c for (u, v), c in dw.coeffs.items() if not u}
        right = {u: c for (u, v), c in dw.coeffs.items() if not v}
        if U.element(left) != elt or U.element(right) != elt:
            fails["counit"].append((w,))
        acc_l: dict[Word, CycloScalar] = {}
        acc_r: dict[Word, CycloScalar] = {}
        for (u, v), c in dw.coeffs.items():
            eu, ev = U.element({u: ONE}), U.element({v: ONE})
            add_scaled(acc_l, uea_multiply(antipode(eu), ev).coeffs, c)
            add_scaled(acc_r, uea_multiply(eu, antipode(ev)).coeffs, c)
        unit_part = U.one().scale(counit(elt))
        if UEAElement(U, acc_l) != unit_part or UEAElement(U, acc_r) != unit_part:
            fails["antipode"].append((w,))
        if dw.flip() != dw:
            fails["cocommutativity"].append((w,))
    for u in words:
        for v in words:
            if len(u) + len(v) > max_len:
                continue
            eu, ev = U.element({u: ONE}), U.element({v: ONE})
            if delta(uea_multiply(eu, ev)) != delta(eu) * delta(ev):
                fails["multiplicativity"].append((u, v))
    # Sym(g) has U's normal words and their coproduct
    for w in words:
        rhs: dict[tuple[Word, ...], CycloScalar] = {}
        for (u, v), c in delta_word(U, w).coeffs.items():
            wu = weyl_map(U, {u: ONE})
            wv = weyl_map(U, {v: ONE})
            for uu, cu in wu.coeffs.items():
                for vv, cv in wv.coeffs.items():
                    add_term(rhs, (uu, vv), c * cu * cv)
        if delta(weyl_map(U, {w: ONE})) != TensorElement(U, 2, rhs):
            fails["weyl"].append((w,))
    return len(words), fails


def pbw_dims(ctx: EnvelopingAlgebra, n_max: int) -> tuple[list[int], list[int]]:
    """(normal word counts, symmetric-coinvariant counts) per degree 0..n_max.

    The second list counts multisets over polynomial letters times subsets
    of exterior letters; PBW says the lists agree.  It is computed first:
    when the normal words of degrees 0..n_max, plus one per degree, come to
    more than MAX_PBW_WORDS, BiglaError is raised before any word is
    enumerated.
    """
    d_ext = sum(1 for e in ctx.exterior if e)
    d_poly = ctx.g.dim - d_ext
    # each degree costs a step even when empty, as above d_ext with no
    # polynomial letters
    steps = n_max + 1
    formula = []
    for n in range(n_max + 1):
        if steps > MAX_PBW_WORDS:
            break
        total = 0
        for k in range(min(n, d_ext) + 1):
            m = n - k
            # stars and bars; the m = 0 case must survive d_poly = 0
            polys = 1 if m == 0 else comb(d_poly + m - 1, m)
            total += comb(d_ext, k) * polys
        formula.append(total)
        steps += total
        if not total:
            # only a table with no polynomial letter has an empty degree,
            # and then every later degree is empty too
            formula.extend(repeat(0, n_max - n))
            break
    if steps > MAX_PBW_WORDS:
        raise BiglaError(
            f"degrees 0..{n_max} and their normal words number more "
            f"than {MAX_PBW_WORDS}")
    # walk the step table level by level, keeping per word only the lowest
    # rank that may follow it
    steps = ctx.steps
    counted = [1]
    level = [0]
    for _ in range(n_max):
        level = [nxt for low in level for _, _, nxt in steps[low:]]
        counted.append(len(level))
        if not level:
            counted.extend(repeat(0, n_max + 1 - len(counted)))
            break
    return counted, formula
