"""Seeded command lists for the four benchmark workloads, with their checks.

Each workload is a list of ``bigla`` argument vectors over the exported
catalog files.  The seed decides the random inputs (words, vectors,
polynomials, sweep seeds) and the command order; the grids of files and
sizes are fixed, so every seed asks for about the same amount of work.

Every command carries a check that reads its exit code and stdout and
returns None when the output is right, or a one-line reason.  Checks run
outside the timed region.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from math import comb
from typing import Callable, NamedTuple, Optional

from bigla import schema
from bigla.deformed import EvenOddPoly, parse_poly
from bigla.equivalence import rebraid
from bigla.scalars import CycloScalar
from bigla.uea import EnvelopingAlgebra, UEAElement, normal_form_random

HERE = os.path.dirname(os.path.abspath(__file__))

CATALOG = ("so3", "so12", "qalgebra", "qalgebra-lie", "mat2-super", "qmat2",
           "qmat2-lie", "unitary2x2", "odd-pair", "triangular3")
LIE = ("so3", "so12", "qalgebra-lie", "qmat2-lie", "unitary2x2", "odd-pair")

WORKLOADS = ("pbw-long", "hopf", "functionals", "tables")

# Vector and polynomial arguments are passed as --opt=value, since a value
# starting with "-" would otherwise parse as an option.

# pbw-long: words per (algebra, length) stratum, drawn from pbw_pool.json
PBW_ALGEBRAS = ("so3", "so12", "qalgebra-lie", "qmat2-lie", "unitary2x2")
PBW_LENGTHS = range(8, 15)
PBW_PER_STRATUM = 3

# hopf: hopf-check up to max-len 4, 3 on the 8-dimensional algebras, whose
# max-len 4 sweep alone takes about 10 s
HOPF_MAX_LEN = {"so3": 4, "so12": 4, "qalgebra-lie": 4, "odd-pair": 4,
                "qmat2-lie": 3, "unitary2x2": 3}
# orders cycle through 2, 3, 4 so that every seed asks for the same mix
BCH_PER_ALGEBRA = 16
BCH_ALGEBRAS = ("so3", "so12", "qalgebra-lie", "qmat2-lie", "unitary2x2")

# functionals: hom-dim truncations per algebra, one-pair conv-check sweeps
# at n = 4 per algebra.  The four costliest hom-dim commands (150-180 ms
# each, unscaled, on a shared 2-core Xeon VM) run three times a pass, so
# that the twelve slowest commands hold no seeded input: the 90th
# percentile of 105 commands falls between the 11th and 12th slowest, and
# the conv-checks (65-110 ms on the 8-dimensional algebras, with the
# seeded pair) stay below it.
HOM_DIM = {"so3": (2, 4, 6), "so12": (2, 4, 6),
           "qalgebra-lie": tuple(range(2, 10)), "odd-pair": tuple(range(2, 10)),
           "qmat2-lie": (4, 5), "unitary2x2": (4, 5)}
HOM_DIM_REPEATED = {"so3": 8, "so12": 8, "qmat2-lie": 6, "unitary2x2": 6}
HOM_DIM_REPEATS = 3
CONV_CHECKS = {"qmat2-lie": 5, "unitary2x2": 5, "so3": 14, "so12": 14,
               "qalgebra-lie": 15, "odd-pair": 14}

# tables: check with each selector flag that applies, per file
SELECTORS = {"lie": ("--antisymmetry", "--homogeneity", "--jacobi"),
             "super": ("--antisymmetry", "--homogeneity", "--jacobi"),
             "assoc": ("--homogeneity",)}
APPENDIX_EACH = 9

HOPF_AXIOMS = ("antipode", "coassociativity", "cocommutativity", "counit",
               "multiplicativity", "weyl")

Check = Callable[[int, str], Optional[str]]


class Command(NamedTuple):
    argv: tuple[str, ...]
    check: Check

    def text(self) -> str:
        """The command line with catalog paths reduced to file names."""
        return " ".join(os.path.basename(a) if a.endswith(".json") else a
                        for a in self.argv)


def catalog_path(catdir: str, name: str) -> str:
    return os.path.join(catdir, f"{name}.json")


def super_path(catdir: str, name: str) -> str:
    return os.path.join(catdir, f"{name}-super.json")


def generate(workload: str, seed: int, catdir: str) -> list[Command]:
    """The seeded command list of one pass; the same seed gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    make = {"pbw-long": _pbw_long, "hopf": _hopf,
            "functionals": _functionals, "tables": _tables}[workload]
    cmds = make(rng, _Catalog(catdir))
    rng.shuffle(cmds)
    return cmds


class _Catalog:
    """Lazy access to the exported files, for building checks."""

    def __init__(self, catdir: str):
        self.dir = catdir
        self._lie: dict[str, object] = {}

    def path(self, name: str) -> str:
        return catalog_path(self.dir, name)

    def lie(self, name: str):
        if name not in self._lie:
            self._lie[name] = schema.load_path(self.path(name))
        return self._lie[name]


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _exact(expected: str) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        return None if out == expected else "stdout differs from the expected text"
    return check


# pbw-long

def _pbw_long(rng: random.Random, cat: _Catalog) -> list[Command]:
    with open(os.path.join(HERE, "pbw_pool.json")) as fh:
        pool = json.load(fh)
    cmds = []
    for name in PBW_ALGEBRAS:
        for length in PBW_LENGTHS:
            for word in rng.sample(pool[name][str(length)], PBW_PER_STRATUM):
                cmds.append(Command(
                    ("uea", "nf", cat.path(name), "--word", word),
                    _check_nf(cat, name, word.split(","), rng.randrange(1 << 30))))
    return cmds


class _MostlyLeftmost:
    """Rewriting positions for normal_form_random: a uniformly random
    violation with probability 1/8, else the leftmost one.  Uniform choices
    share so little memo work that the oracle ran 5-15 times slower than
    the engine on 14-letter words, far longer than the timed passes; always
    taking the rightmost violation was as slow on unitary2x2."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def choice(self, spots):
        return self._rng.choice(spots) if self._rng.random() < 1 / 8 else spots[0]


def _check_nf(cat: _Catalog, name: str, labels: list[str], oracle_seed: int) -> Check:
    """The printed normal form must equal the random-pivot rewriting of the
    same word: confluence makes every rewriting order agree."""
    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        ctx = EnvelopingAlgebra(cat.lie(name))
        word = ctx.word_from_labels(labels)
        terms = normal_form_random(ctx, word, _MostlyLeftmost(oracle_seed))
        if out != UEAElement(ctx, terms).pretty() + "\n":
            return "normal form differs from the random-pivot oracle"
        return None
    return check


# hopf

def _normal_word_count(g, max_len: int) -> int:
    """Normal words up to max_len: multisets of even letters times subsets
    of odd letters (PBW), counted by formula."""
    odd = sum(d.parity for d in g.space.degrees)
    even = g.dim - odd
    total = 0
    for n in range(max_len + 1):
        for k in range(min(n, odd) + 1):
            m = n - k
            total += comb(odd, k) * (1 if m == 0 else comb(even + m - 1, m))
    return total


def _even_vector(rng: random.Random, g) -> str:
    even = [lab for lab, d in zip(g.space.labels, g.space.degrees) if d.parity == 0]
    picked = rng.sample(even, rng.randint(1, min(2, len(even))))
    coeffs = ("1", "-1", "2", "1/2", "-1/2", "3/2")
    return ",".join(f"{rng.choice(coeffs)}*{lab}" for lab in picked)


def _hopf(rng: random.Random, cat: _Catalog) -> list[Command]:
    cmds = []
    for name, top in HOPF_MAX_LEN.items():
        g = cat.lie(name)
        for max_len in range(1, top + 1):
            expected = (f"words up to length {max_len}: "
                        f"{_normal_word_count(g, max_len)}\n"
                        + "".join(f"{a}: ok\n" for a in HOPF_AXIOMS))
            cmds.append(Command(
                ("uea", "hopf-check", cat.path(name), "--max-len", str(max_len)),
                _exact(expected)))
    for name in BCH_ALGEBRAS:
        g = cat.lie(name)
        for i in range(BCH_PER_ALGEBRA):
            n = 2 + i % 3
            cmds.append(Command(
                ("hc", "bch", cat.path(name), f"--x={_even_vector(rng, g)}",
                 f"--y={_even_vector(rng, g)}", "--n", str(n)),
                _check_bch(n)))
    return cmds


def _check_bch(n: int) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        lines = out.split("\n")
        if (len(lines) != 3 or lines[2]
                or not lines[0].startswith(f"log(exp(x) exp(y)) to order {n}: ")
                or lines[1] != "result is primitive"):
            return "bch output is not a primitive log"
        return None
    return check


# functionals

def _functionals(rng: random.Random, cat: _Catalog) -> list[Command]:
    cmds = []
    for name, truncations in HOM_DIM.items():
        g = cat.lie(name)
        dim = 2 ** sum(d.parity for d in g.space.degrees)
        repeated = (HOM_DIM_REPEATED[name],) * HOM_DIM_REPEATS if name in HOM_DIM_REPEATED else ()
        for n in truncations + repeated:
            cmds.append(Command(
                ("hc", "hom-dim", cat.path(name), "--n", str(n)),
                _exact(f"equivariant functional dimension at truncation {n}: {dim}\n")))
    for name, count in CONV_CHECKS.items():
        for _ in range(count):
            cmds.append(Command(
                ("--seed", str(rng.randrange(1 << 30)), "hc", "conv-check",
                 cat.path(name), "--n", "4", "--trials", "1"),
                _exact("convolution commutativity: 1 random pairs, all commute\n")))
    return cmds


# tables

def _alpha_expected(g) -> str:
    degs = g.space.degrees
    plus = 0
    for a in degs:
        for b in degs:
            for c in degs:
                alpha = a.eps1 * b.eps2 + b.eps1 * c.eps2 + c.eps1 * a.eps2
                plus += alpha % 2 == 0
    n3 = g.dim ** 3
    return (f"triples checked: {n3} (alpha +1 on {plus}, -1 on {n3 - plus})\n"
            "twist transfer identity: ok\n")


def _check_unbraid(original: str) -> Check:
    """The printed super table must rebraid to the original file, byte for byte."""
    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(out)
        if doc.get("kind") != schema.KIND_SUPER:
            return "unbraid did not print a super table"
        if schema.dumps(rebraid(schema.from_doc(doc))) != original:
            return "unbraid output does not rebraid to the input"
        return None
    return check


def _poly_text(coeffs: dict[int, Fraction]) -> str:
    parts = []
    for k in sorted(coeffs, reverse=True):
        c = coeffs[k]
        mono = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        mag = abs(c)
        body = str(mag) if not mono else (mono if mag == 1 else f"{mag}*{mono}")
        parts.append(("-" if c < 0 else "+") + body)
    text = "".join(parts)
    return text[1:] if text.startswith("+") else text


def _random_poly(rng: random.Random, degree: int) -> dict[int, Fraction]:
    coeffs = {}
    for k in range(degree + 1):
        if rng.random() < 0.7:
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            if c:
                coeffs[k] = c
    return coeffs or {0: Fraction(1)}


def _star(f: dict[int, Fraction], h: dict[int, Fraction]) -> dict[int, Fraction]:
    """(f * h) = f+ h+ - f- h- + f+ h- + f- h+, by parity of the exponents:
    the odd-odd products pick up the sign."""
    out: dict[int, Fraction] = {}
    for i, a in f.items():
        for j, b in h.items():
            sign = -1 if i % 2 and j % 2 else 1
            out[i + j] = out.get(i + j, Fraction(0)) + sign * a * b
    return {k: c for k, c in out.items() if c}


def _check_star(expected: dict[int, Fraction]) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        if not out.endswith("\n") or parse_poly(out[:-1]) != EvenOddPoly(expected):
            return "star product differs from the expected polynomial"
        return None
    return check


def _character_expected(f: dict[int, Fraction], a: Fraction) -> str:
    even = sum((c * a ** k for k, c in f.items() if k % 2 == 0), Fraction(0))
    odd = sum((c * a ** k for k, c in f.items() if k % 2), Fraction(0))
    value = CycloScalar(even, 0, odd, 0).pretty()
    return f"character at {a}: {value}  [{'R' if a == 0 else 'C'}]\n"


def _tables(rng: random.Random, cat: _Catalog) -> list[Command]:
    cmds = []
    files = [(cat.path(name), "lie" if name in LIE else "assoc") for name in CATALOG]
    files += [(super_path(cat.dir, name), "super") for name in LIE]
    for path, kind in files:
        keys = {"lie": ("antisymmetry", "homogeneity", "jacobi"),
                "super": ("antisymmetry", "homogeneity", "involution", "jacobi"),
                "assoc": ("associativity", "homogeneity", "unit")}[kind]
        cmds.append(Command(("check", path),
                            _exact("".join(f"{k}: ok\n" for k in keys))))
        for flag in SELECTORS[kind]:
            cmds.append(Command(("check", path, flag), _exact(f"{flag[2:]}: ok\n")))
    for name in LIE:
        sp = super_path(cat.dir, name)
        original = _read(cat.path(name))
        cmds.append(Command(("unbraid", cat.path(name)), _check_unbraid(original)))
        cmds.append(Command(("rebraid", sp), _exact(original)))
        cmds.append(Command(("alpha-check", cat.path(name)),
                            _exact(_alpha_expected(cat.lie(name)))))
    for _ in range(APPENDIX_EACH):
        f = _random_poly(rng, rng.randint(1, 8))
        h = _random_poly(rng, rng.randint(1, 8))
        cmds.append(Command(
            ("appendix", "star", f"--f={_poly_text(f)}", f"--g={_poly_text(h)}"),
            _check_star(_star(f, h))))
        f = _random_poly(rng, rng.randint(1, 8))
        a = Fraction(rng.randint(0, 5), rng.randint(1, 3)) if rng.random() < 0.8 else Fraction(0)
        cmds.append(Command(
            ("appendix", "character", f"--f={_poly_text(f)}", "--a", str(a)),
            _exact(_character_expected(f, a))))
        trials = rng.randint(5, 20)
        cmds.append(Command(
            ("--seed", str(rng.randrange(1 << 30)), "appendix", "iso-check",
             "--degree", str(rng.randint(3, 8)), "--trials", str(trials)),
            _exact(f"untwisting is multiplicative on {trials} random pairs\n"
                   "star square of x: -x^2 vs pointwise x^2 (products differ)\n")))
    return cmds
