"""Command line entry point.

Exit codes: 0 all checks passed, 1 a semantic check failed (axiom
violations, a failed identity), 2 malformed input or bad usage.  Output is
deterministic; wall-clock timing only appears under --timing so that equal
inputs produce byte-identical output otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from fractions import Fraction

from . import schema
from .catalog import (catalog, so3_group_automorphism, so3_group_elements,
                      so3_standard_rep)
from .deformed import (character_at, parse_poly, star_product,
                       star_vs_pointwise_distinguisher, untwisting_failures)
from .equivalence import (SuperLieAlgebraWithInvolution, alpha_sweep, rebraid,
                          unbraid)
from .errors import BiglaError, InputNotLie
from .hc import (bch_product, commutativity_failures, equivariant_hom_basis,
                 inner_automorphism_check)
from .lie import BiGradedAssocAlgebra, BiGradedLieAlgebra, check_lie
from .linear import Vector
from .scalars import CycloScalar, parse_rational, sign_deligne
from .sparse import add_term
from .uea import EnvelopingAlgebra, hopf_failures, normal_form, pbw_dims, word_name


class _Fail(Exception):
    """Malformed input or bad usage: exit code 2."""


def _load(path: str):
    try:
        return schema.load_path(path)
    except OSError as exc:
        raise _Fail(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise _Fail(f"{path}: {exc}") from exc


def _load_lie(path: str) -> BiGradedLieAlgebra:
    a = _load(path)
    if not isinstance(a, BiGradedLieAlgebra):
        raise _Fail(f"{path}: expected kind {schema.KIND_LIE}")
    return a


def _labels(space, idx) -> str:
    return ",".join(space.labels[k] for k in idx)


def _parse_word(U: EnvelopingAlgebra, text: str):
    try:
        return U.word_from_labels(lab.strip() for lab in text.split(","))
    except KeyError as exc:
        raise _Fail(f"unknown basis label in word: {exc}") from exc


def _parse_vector(space, text: str) -> Vector:
    """Comma-separated terms, each a basis label or coef*label; a label may
    itself contain '*'."""
    coeffs: dict[int, CycloScalar] = {}
    for term in text.split(","):
        term = term.strip()
        if not term:
            raise _Fail(f"empty term in vector {text!r}")
        coef_s, star, lab = term.partition("*")
        if term in space.labels or not star:
            c, lab = Fraction(1), term
        else:
            try:
                c = parse_rational(coef_s.strip())
            except ValueError as exc:
                raise _Fail(f"bad coefficient {coef_s!r}") from exc
        lab = lab.strip()
        try:
            k = space.index(lab)
        except KeyError as exc:
            raise _Fail(str(exc)) from exc
        add_term(coeffs, k, CycloScalar.from_rational(c))
    return Vector(space, coeffs)


def _size(text: str) -> int:
    """Type of the size flags: a non-negative integer."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return n


def _output(args, a):
    """Write an algebra file to args.output, or make it the command's output."""
    text = schema.dumps(a)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        return 0, {"ok": True, "written": args.output}, [f"wrote {args.output}"]
    return 0, schema.to_doc(a), [text.rstrip("\n")]


def _emit(args, result: dict, lines: list[str], elapsed: float):
    if args.timing:
        result["elapsed_s"] = round(elapsed, 3)
        lines = lines + [f"elapsed: {elapsed:.3f}s"]
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


# command handlers, each returns (exit code, json result, human lines)

def cmd_check(args):
    a = _load(args.file)
    selected = [w for w in ("antisymmetry", "jacobi", "homogeneity")
                if getattr(args, w)]
    if isinstance(a, BiGradedAssocAlgebra):
        if selected and selected != ["homogeneity"]:
            raise _Fail("only --homogeneity applies to an associative table")
        report = {"homogeneity": a.product.check_homogeneity()}
        if not selected:
            report["associativity"] = a.check_associativity()
            report["unit"] = a.check_unit()
        kind = schema.KIND_ASSOC
    elif isinstance(a, SuperLieAlgebraWithInvolution):
        report = a.check(selected)
        kind = schema.KIND_SUPER
        a = a.algebra
    else:
        report = check_lie(a, sign_deligne, selected)
        kind = schema.KIND_LIE

    result = {"file": args.file, "kind": kind, "name": a.name, "checks": {}}
    lines = []
    ok = True
    for key in sorted(report):
        bad = report[key]
        items = []
        for entry in bad:
            if key == "involution":
                items.append(f"{entry[0]}: {_labels(a.space, entry[1:])}")
            elif isinstance(entry, tuple):
                items.append(_labels(a.space, entry))
            else:
                items.append(a.space.labels[entry])
        result["checks"][key] = items
        if items:
            ok = False
            lines.append(f"{key}: {len(items)} violation(s)")
            lines.extend(f"  {it}" for it in items)
        else:
            lines.append(f"{key}: ok")
    result["ok"] = ok
    return (0 if ok else 1), result, lines


def cmd_unbraid(args):
    return _output(args, unbraid(_load_lie(args.file)))


def cmd_rebraid(args):
    a = _load(args.file)
    if not isinstance(a, SuperLieAlgebraWithInvolution):
        raise _Fail(f"{args.file}: expected kind {schema.KIND_SUPER}")
    return _output(args, rebraid(a))


def cmd_alpha_check(args):
    g = _load_lie(args.file)
    n = g.dim
    results = alpha_sweep(g)
    plus = sum(r.alpha_sign == 1 for r in results.values())
    minus = n ** 3 - plus
    failures = [_labels(g.space, t) for t, r in results.items() if not r.identity_holds]
    ok = not failures
    result = {"file": args.file, "triples": n ** 3, "alpha_plus": plus,
              "alpha_minus": minus, "failures": failures, "ok": ok}
    lines = [f"triples checked: {n ** 3} (alpha +1 on {plus}, -1 on {minus})",
             "twist transfer identity: ok" if ok
             else f"twist transfer identity fails on {len(failures)} triple(s)"]
    lines.extend(f"  {f}" for f in failures)
    return (0 if ok else 1), result, lines


def cmd_uea_nf(args):
    g = _load_lie(args.file)
    U = EnvelopingAlgebra(g)
    word = _parse_word(U, args.word)
    elt = normal_form(U, word)
    terms = [{"word": [g.space.labels[k] for k in w],
              "coeff": schema.scalar_to_json(c)}
             for w, c in elt.sorted_terms()]
    result = {"word": [g.space.labels[k] for k in word], "terms": terms,
              "pretty": elt.pretty()}
    return 0, result, [elt.pretty()]


def cmd_uea_hopf_check(args):
    g = _load_lie(args.file)
    U = EnvelopingAlgebra(g)
    labels = g.space.labels
    fails = {key: [" | ".join(word_name(labels, w) for w in entry) for entry in bad]
             for key, bad in hopf_failures(U, args.max_len).items()}
    ok = not any(fails.values())
    nwords = len(U.normal_words_up_to(args.max_len))
    result = {"file": args.file, "max_len": args.max_len, "words": nwords,
              "failures": fails, "ok": ok}
    lines = [f"words up to length {args.max_len}: {nwords}"]
    for key in sorted(fails):
        bad = fails[key]
        lines.append(f"{key}: ok" if not bad else f"{key}: {len(bad)} failure(s)")
        lines.extend(f"  {b}" for b in bad)
    return (0 if ok else 1), result, lines


def cmd_pbw_dims(args):
    g = _load_lie(args.file)
    U = EnvelopingAlgebra(g)
    counted, formula = pbw_dims(U, args.n)
    ok = counted == formula
    result = {"file": args.file, "n": args.n, "enumerated": counted,
              "formula": formula, "match": ok}
    lines = [f"degree {n}: {c} normal words, formula {f}"
             for n, (c, f) in enumerate(zip(counted, formula))]
    lines.append("enumeration matches the formula" if ok
                 else "MISMATCH between enumeration and formula")
    return (0 if ok else 1), result, lines


def cmd_hc_hom_dim(args):
    g = _load_lie(args.file)
    basis = equivariant_hom_basis(EnvelopingAlgebra(g), args.n)
    result = {"file": args.file, "module": "trivial", "truncation": args.n,
              "dimension": len(basis)}
    return 0, result, [f"equivariant functional dimension at truncation "
                       f"{args.n}: {len(basis)}"]


def cmd_hc_conv_check(args):
    g = _load_lie(args.file)
    failures = commutativity_failures(EnvelopingAlgebra(g), args.n, args.trials,
                                      random.Random(args.seed))
    ok = failures == 0
    result = {"file": args.file, "n": args.n, "trials": args.trials,
              "failures": failures, "ok": ok}
    return (0 if ok else 1), result, [
        f"convolution commutativity: {args.trials} random pairs, "
        + ("all commute" if ok else f"{failures} FAILED")]


def cmd_hc_bch(args):
    g = _load_lie(args.file)
    U = EnvelopingAlgebra(g)
    x = _parse_vector(g.space, args.x)
    y = _parse_vector(g.space, args.y)
    res = bch_product(U, x, y, args.n)
    result = {"file": args.file, "n": args.n, "log": res.log.pretty(),
              "primitive": res.primitive}
    lines = [f"log(exp(x) exp(y)) to order {args.n}: {res.log.pretty()}",
             "result is primitive" if res.primitive
             else "result is NOT primitive"]
    return (0 if res.primitive else 1), result, lines


def cmd_hc_inner_check(args):
    rep = so3_standard_rep()
    elements = so3_group_elements()
    if args.element not in elements:
        raise _Fail(f"unknown group element {args.element!r}; "
                    f"choices: {', '.join(sorted(elements))}")
    expected = so3_group_automorphism()
    bad = inner_automorphism_check(rep, elements[args.element], expected)
    labels = [rep.space.labels[k] for k in bad]
    ok = not bad
    result = {"rep": "so3-std", "element": args.element,
              "target": "degree involution", "violations": labels, "ok": ok}
    lines = [f"conjugation by {args.element} implements the degree involution"
             if ok else
             f"conjugation by {args.element} does not implement the degree "
             f"involution (moves {', '.join(labels)} wrong)"]
    return (0 if ok else 1), result, lines


def cmd_appendix_star(args):
    try:
        f = parse_poly(args.f)
        h = parse_poly(args.g)
        out = star_product(f, h)
    except (ValueError, BiglaError) as exc:
        raise _Fail(str(exc)) from exc
    result = {"f": f.pretty(), "g": h.pretty(), "star": out.pretty(),
              "pointwise": f.pointwise_mul(h).pretty()}
    return 0, result, [out.pretty()]


def cmd_appendix_iso_check(args):
    failures = untwisting_failures(args.degree, args.trials, random.Random(args.seed))
    cert = star_vs_pointwise_distinguisher(3)
    ok = failures == 0 and cert.separates
    result = {"trials": args.trials, "degree": args.degree,
              "failures": failures,
              "distinguisher": {"star_square": cert.star_square.pretty(),
                                "pointwise_square": cert.pointwise_square.pretty(),
                                "separates": cert.separates},
              "ok": ok}
    lines = [f"untwisting is multiplicative on {args.trials} random pairs"
             if failures == 0 else f"{failures} multiplicativity FAILURES",
             f"star square of x: {cert.star_square.pretty()} vs pointwise "
             f"{cert.pointwise_square.pretty()} "
             + ("(products differ)" if cert.separates else "(no separation!)")]
    return (0 if ok else 1), result, lines


def cmd_appendix_character(args):
    try:
        f = parse_poly(args.f)
        a = parse_rational(args.a)
    except ValueError as exc:
        raise _Fail(str(exc)) from exc
    value, tag = character_at(f, a)
    result = {"f": f.pretty(), "a": str(a), "value": value.pretty(),
              "residue": tag}
    return 0, result, [f"character at {a}: {value.pretty()}  [{tag}]"]


def cmd_examples_list(args):
    rows = []
    for name, (kind, ctor) in sorted(catalog().items()):
        a = ctor()
        rows.append({"name": name, "kind": kind, "dim": a.space.dim})
    result = {"examples": rows}
    width = max(len(r["name"]) for r in rows)
    lines = [f"{r['name']:<{width}}  {r['kind']:<5}  dim {r['dim']}"
             for r in rows]
    return 0, result, lines


def cmd_examples_export(args):
    entries = catalog()
    if args.name not in entries:
        raise _Fail(f"unknown example {args.name!r}; "
                    f"run 'bigla examples list'")
    _, ctor = entries[args.name]
    return _output(args, ctor())


class _Subcommands(argparse._SubParsersAction):
    """Subcommands whose parsers are built when argparse first dispatches to
    them.  main() builds a parser per call, so a call builds only the top
    level, the named command and, under a group, the named subcommand: two
    or three parsers, not the whole tree.  add_parser records the help line
    and a build function; argparse's choice checks, usage and help read
    only the names and help lines."""

    def add_parser(self, name, *, help, build):
        self._choices_actions.append(self._ChoicesPseudoAction(name, (), help))
        self._name_parser_map[name] = build

    def __call__(self, parser, namespace, values, option_string=None):
        name = values[0]
        entry = self._name_parser_map[name]
        if not isinstance(entry, argparse.ArgumentParser):
            self._name_parser_map[name] = sub = argparse.ArgumentParser(
                prog=f"{self._prog_prefix} {name}")
            entry(sub)
        super().__call__(parser, namespace, values, option_string)


def _subcommands(parser, dest: str) -> _Subcommands:
    parser.register("action", "parsers", _Subcommands)
    return parser.add_subparsers(dest=dest, required=True)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bigla",
        description="Exact checks and constructions for bi-graded Lie algebras.")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized checks (default 0)")
    p.add_argument("--timing", action="store_true",
                   help="append elapsed wall time to the output")
    sub = _subcommands(p, "command")

    def check(q):
        q.add_argument("file")
        q.add_argument("--antisymmetry", action="store_true")
        q.add_argument("--jacobi", action="store_true")
        q.add_argument("--homogeneity", action="store_true")
        q.set_defaults(fn=cmd_check)
    sub.add_parser("check", help="run axiom checks on an algebra file", build=check)

    def braid(fn):
        def build(q):
            q.add_argument("file")
            q.add_argument("-o", "--output")
            q.set_defaults(fn=fn)
        return build
    sub.add_parser("unbraid", help="twist a bi-graded table to its super companion",
                   build=braid(cmd_unbraid))
    sub.add_parser("rebraid", help="invert the twist using the stored involution",
                   build=braid(cmd_rebraid))

    def alpha_check(q):
        q.add_argument("file")
        q.set_defaults(fn=cmd_alpha_check)
    sub.add_parser("alpha-check",
                   help="compare Jacobi defects across the twist on all triples",
                   build=alpha_check)

    def uea(group):
        usub = _subcommands(group, "subcommand")

        def nf(q):
            q.add_argument("file")
            q.add_argument("--word", required=True, help="comma-separated labels")
            q.set_defaults(fn=cmd_uea_nf)
        usub.add_parser("nf", help="normal form of a word", build=nf)

        def hopf_check(q):
            q.add_argument("file")
            q.add_argument("--max-len", type=_size, default=3)
            q.set_defaults(fn=cmd_uea_hopf_check)
        usub.add_parser("hopf-check", help="coproduct, counit, antipode axioms",
                        build=hopf_check)
    sub.add_parser("uea", help="enveloping algebra operations", build=uea)

    def pbw(group):
        psub = _subcommands(group, "subcommand")

        def dims(q):
            q.add_argument("file")
            q.add_argument("--n", type=_size, default=4)
            q.set_defaults(fn=cmd_pbw_dims)
        psub.add_parser("dims", help="normal word counts against the formula",
                        build=dims)
    sub.add_parser("pbw", help="basis counting", build=pbw)

    def hc(group):
        hsub = _subcommands(group, "subcommand")

        def hom_dim(q):
            q.add_argument("file")
            q.add_argument("--n", type=_size, required=True)
            q.set_defaults(fn=cmd_hc_hom_dim)
        hsub.add_parser("hom-dim", help="dimension of equivariant functionals",
                        build=hom_dim)

        def conv_check(q):
            q.add_argument("file")
            q.add_argument("--n", type=_size, default=3)
            q.add_argument("--trials", type=_size, default=20)
            q.set_defaults(fn=cmd_hc_conv_check)
        hsub.add_parser("conv-check", help="convolution commutativity sweep",
                        build=conv_check)

        def bch(q):
            q.add_argument("file")
            q.add_argument("--x", required=True, help="vector, e.g. 'e1' or '1/2*e1,e2'")
            q.add_argument("--y", required=True)
            q.add_argument("--n", type=_size, default=2)
            q.set_defaults(fn=cmd_hc_bch)
        hsub.add_parser("bch", help="truncated log of a product of exponentials",
                        build=bch)

        def inner_check(q):
            q.add_argument("--element", required=True)
            q.set_defaults(fn=cmd_hc_inner_check)
        hsub.add_parser("inner-check",
                        help="does conjugation implement the degree involution",
                        build=inner_check)
    sub.add_parser("hc", help="functionals on the enveloping algebra", build=hc)

    def appendix(group):
        asub = _subcommands(group, "subcommand")

        def star(q):
            q.add_argument("--f", required=True)
            q.add_argument("--g", required=True)
            q.set_defaults(fn=cmd_appendix_star)
        asub.add_parser("star", help="star product of two polynomials", build=star)

        def iso_check(q):
            q.add_argument("--degree", type=_size, default=8)
            q.add_argument("--trials", type=_size, default=200)
            q.set_defaults(fn=cmd_appendix_iso_check)
        asub.add_parser("iso-check", help="untwisting isomorphism sweep",
                        build=iso_check)

        def character(q):
            q.add_argument("--f", required=True)
            q.add_argument("--a", required=True)
            q.set_defaults(fn=cmd_appendix_character)
        asub.add_parser("character", help="evaluation character at a point",
                        build=character)
    sub.add_parser("appendix", help="deformed one-variable products", build=appendix)

    def examples(group):
        esub = _subcommands(group, "subcommand")

        def list_(q):
            q.set_defaults(fn=cmd_examples_list)
        esub.add_parser("list", help="list names, kinds, dimensions", build=list_)

        def export(q):
            q.add_argument("name")
            q.add_argument("-o", "--output")
            q.set_defaults(fn=cmd_examples_export)
        esub.add_parser("export", help="write an example as JSON", build=export)
    sub.add_parser("examples", help="shipped example algebras", build=examples)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        code, result, lines = args.fn(args)
    except InputNotLie as exc:
        # unbraid and every command that rewrites need a Lie bracket
        code, result = 1, {"ok": False, "error": str(exc)}
        lines = [f"not a Lie table: {exc}"]
    except (_Fail, BiglaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(args, result, lines, time.perf_counter() - t0)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; point stdout at devnull so that
        # the interpreter's final flush is silent too (the SIGPIPE recipe of
        # the Python signal module docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
