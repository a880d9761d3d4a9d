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
from typing import Any, Callable, NamedTuple, Optional

from . import schema
from .catalog import (catalog, so3_group_automorphism, so3_group_elements,
                      so3_standard_rep)
from .deformed import (character_at, parse_poly, star_product,
                       star_vs_pointwise_distinguisher, untwisting_failures)
from .equivalence import (SuperLieAlgebraWithInvolution, alpha_failures,
                          alpha_sign_counts, rebraid, unbraid)
from .errors import BiglaError, InputNotLie
from .hc import (bch_product, commutativity_failures, equivariant_hom_basis,
                 inner_automorphism_check)
from .lie import BiGradedAssocAlgebra, BiGradedLieAlgebra, check_lie
from .linear import Vector
from .scalars import CycloScalar, parse_rational
from .sparse import add_term
from .uea import EnvelopingAlgebra, hopf_failures, normal_form, pbw_dims, word_name


def _load(path: str):
    try:
        return schema.load_path(path)
    except OSError as exc:
        raise BiglaError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise BiglaError(f"{path}: {exc}") from exc


def _load_lie(path: str) -> BiGradedLieAlgebra:
    a = _load(path)
    if not isinstance(a, BiGradedLieAlgebra):
        raise BiglaError(f"{path}: expected kind {schema.KIND_LIE}")
    return a


def _labels(space, idx) -> str:
    return ",".join(space.labels[k] for k in idx)


def _parse_word(U: EnvelopingAlgebra, text: str):
    try:
        return U.word_from_labels(lab.strip() for lab in text.split(","))
    except KeyError as exc:
        raise BiglaError(f"unknown basis label in word: {exc}") from exc


def _parse_vector(space, text: str) -> Vector:
    """Comma-separated terms, each a basis label or coef*label; a label may
    itself contain '*'."""
    coeffs: dict[int, CycloScalar] = {}
    for term in text.split(","):
        term = term.strip()
        if not term:
            raise BiglaError(f"empty term in vector {text!r}")
        coef_s, star, lab = term.partition("*")
        if term in space.labels or not star:
            c, lab = Fraction(1), term
        else:
            try:
                c = parse_rational(coef_s.strip())
            except ValueError as exc:
                raise BiglaError(f"bad coefficient {coef_s!r}: {exc}") from exc
        lab = lab.strip()
        try:
            k = space.index(lab)
        except KeyError as exc:
            raise BiglaError(str(exc)) from exc
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
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(schema.dumps(a))
        return 0, {"ok": True, "written": args.output}, [f"wrote {args.output}"]
    if args.json and args.timing:
        # the document takes elapsed_s; without it the file text is the JSON
        return 0, schema.to_doc(a), []
    return 0, None, [schema.dumps(a).rstrip("\n")]


def _emit(args, result: Optional[dict], lines: list[str], elapsed: float):
    # a file command's text is its --json output as it stands (_output)
    if args.json and result is not None:
        if args.timing:
            result["elapsed_s"] = round(elapsed, 3)
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        if args.timing:
            lines = lines + [f"elapsed: {elapsed:.3f}s"]
        for line in lines:
            print(line)


# command handlers, each returns (exit code, json result, human lines); a
# handler whose result costs work beyond its lines builds it only under
# --json and returns None for it otherwise

def cmd_check(args):
    a = _load(args.file)
    selected = [w for w in ("antisymmetry", "jacobi", "homogeneity")
                if getattr(args, w)]
    if isinstance(a, BiGradedAssocAlgebra):
        if selected and selected != ["homogeneity"]:
            raise BiglaError("only --homogeneity applies to an associative table")
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
        report = check_lie(a, selected)
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
        raise BiglaError(f"{args.file}: expected kind {schema.KIND_SUPER}")
    return _output(args, rebraid(a))


def cmd_alpha_check(args):
    g = _load_lie(args.file)
    n = g.dim
    failures = [_labels(g.space, t) for t in alpha_failures(g)]
    plus, minus = alpha_sign_counts(g)
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
    labels = g.space.labels
    nwords, found = hopf_failures(EnvelopingAlgebra(g), args.max_len)
    fails = {key: [" | ".join(word_name(labels, w) for w in entry) for entry in bad]
             for key, bad in found.items()}
    ok = not any(fails.values())
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
    x = _parse_vector(g.space, args.x)
    y = _parse_vector(g.space, args.y)
    log = bch_product(g, x, y, args.n).pretty()
    # the log is a vector of g, so it is primitive by construction
    result = {"file": args.file, "n": args.n, "log": log, "primitive": True}
    return 0, result, [f"log(exp(x) exp(y)) to order {args.n}: {log}",
                       "result is primitive"]


def cmd_hc_inner_check(args):
    rep = so3_standard_rep()
    elements = so3_group_elements()
    if args.element not in elements:
        raise BiglaError(f"unknown group element {args.element!r}; "
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
    except ValueError as exc:
        raise BiglaError(str(exc)) from exc
    star = out.pretty()
    result = ({"f": f.pretty(), "g": h.pretty(), "star": star,
               "pointwise": f.pointwise_mul(h).pretty()} if args.json else None)
    return 0, result, [star]


def cmd_appendix_iso_check(args):
    failures = untwisting_failures(args.degree, args.trials, random.Random(args.seed))
    cert = star_vs_pointwise_distinguisher()
    ok = failures == 0 and cert.separates
    star, pointwise = cert.star_square.pretty(), cert.pointwise_square.pretty()
    result = {"trials": args.trials, "degree": args.degree,
              "failures": failures,
              "distinguisher": {"star_square": star, "pointwise_square": pointwise,
                                "separates": cert.separates},
              "ok": ok} if args.json else None
    lines = [f"untwisting is multiplicative on {args.trials} random pairs"
             if failures == 0 else f"{failures} multiplicativity FAILURES",
             f"star square of x: {star} vs pointwise {pointwise} "
             + ("(products differ)" if cert.separates else "(no separation!)")]
    return (0 if ok else 1), result, lines


def cmd_appendix_character(args):
    try:
        f = parse_poly(args.f)
        a = parse_rational(args.a)
    except ValueError as exc:
        raise BiglaError(str(exc)) from exc
    value, tag = character_at(f, a)
    text = value.pretty()
    result = ({"f": f.pretty(), "a": str(a), "value": text, "residue": tag}
              if args.json else None)
    return 0, result, [f"character at {a}: {text}  [{tag}]"]


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
        raise BiglaError(f"unknown example {args.name!r}; "
                         f"run 'bigla examples list'")
    _, ctor = entries[args.name]
    return _output(args, ctor())


class _Opt(NamedTuple):
    """One option: its strings, the long one last, which also names its
    dest.  Type None makes it a flag that stores True."""
    flags: tuple[str, ...]
    type: Optional[Callable[[str], Any]] = str
    default: Any = None
    required: bool = False
    help: Optional[str] = None

    @property
    def dest(self) -> str:
        return self.flags[-1][2:].replace("-", "_")


class _Cmd(NamedTuple):
    words: tuple[str, ...]
    help: str
    fn: Callable
    positionals: tuple[str, ...] = ()
    options: tuple[_Opt, ...] = ()


def _flag(name: str, help: Optional[str] = None) -> _Opt:
    return _Opt((name,), None, False, help=help)


def _need(name: str, help: Optional[str] = None) -> _Opt:
    return _Opt((name,), required=True, help=help)


# The grammar of the command line, read by _match and by build_parser.
_GLOBAL = (_flag("--json", "machine-readable output"),
           _Opt(("--seed",), int, 0, help="seed for randomized checks (default 0)"),
           _flag("--timing", "append elapsed wall time to the output"))
_FILE = ("file",)
_OUTPUT = _Opt(("-o", "--output"))
_GROUPS = {"uea": "enveloping algebra operations", "pbw": "basis counting",
           "hc": "functionals on the enveloping algebra",
           "appendix": "deformed one-variable products",
           "examples": "shipped example algebras"}
_COMMANDS = (
    _Cmd(("check",), "run axiom checks on an algebra file", cmd_check, _FILE,
         (_flag("--antisymmetry"), _flag("--jacobi"), _flag("--homogeneity"))),
    _Cmd(("unbraid",), "twist a bi-graded table to its super companion",
         cmd_unbraid, _FILE, (_OUTPUT,)),
    _Cmd(("rebraid",), "invert the twist using the stored involution",
         cmd_rebraid, _FILE, (_OUTPUT,)),
    _Cmd(("alpha-check",), "compare Jacobi defects across the twist on all triples",
         cmd_alpha_check, _FILE),
    _Cmd(("uea", "nf"), "normal form of a word", cmd_uea_nf, _FILE,
         (_need("--word", "comma-separated labels"),)),
    _Cmd(("uea", "hopf-check"), "coproduct, counit, antipode axioms",
         cmd_uea_hopf_check, _FILE, (_Opt(("--max-len",), _size, 3),)),
    _Cmd(("pbw", "dims"), "normal word counts against the formula", cmd_pbw_dims,
         _FILE, (_Opt(("--n",), _size, 4),)),
    _Cmd(("hc", "hom-dim"), "dimension of equivariant functionals", cmd_hc_hom_dim,
         _FILE, (_Opt(("--n",), _size, required=True),)),
    _Cmd(("hc", "conv-check"), "convolution commutativity sweep", cmd_hc_conv_check,
         _FILE, (_Opt(("--n",), _size, 3), _Opt(("--trials",), _size, 20))),
    _Cmd(("hc", "bch"), "truncated log of a product of exponentials", cmd_hc_bch,
         _FILE, (_need("--x", "vector, e.g. 'e1' or '1/2*e1,e2'"), _need("--y"),
                 _Opt(("--n",), _size, 2))),
    _Cmd(("hc", "inner-check"), "does conjugation implement the degree involution",
         cmd_hc_inner_check, (), (_need("--element"),)),
    _Cmd(("appendix", "star"), "star product of two polynomials", cmd_appendix_star,
         (), (_need("--f"), _need("--g"))),
    _Cmd(("appendix", "iso-check"), "untwisting isomorphism sweep",
         cmd_appendix_iso_check, (),
         (_Opt(("--degree",), _size, 8), _Opt(("--trials",), _size, 200))),
    _Cmd(("appendix", "character"), "evaluation character at a point",
         cmd_appendix_character, (), (_need("--f"), _need("--a"))),
    _Cmd(("examples", "list"), "list names, kinds, dimensions", cmd_examples_list),
    _Cmd(("examples", "export"), "write an example as JSON", cmd_examples_export,
         ("name",), (_OUTPUT,)),
)


def _take(argv: list[str], i: int, options, values: dict) -> Optional[int]:
    """Read the option at argv[i] into values: the index after it, or None
    when argv[i] is not one of options, named exactly, in canonical form."""
    name, eq, value = argv[i].partition("=")
    opt = next((o for o in options if name in o.flags), None)
    if opt is None or (eq and opt.type is None):
        return None
    if opt.type is None:
        values[opt.dest] = True
        return i + 1
    if not eq:
        i += 1
        if i == len(argv) or argv[i].startswith("-"):
            return None
        value = argv[i]
    try:
        values[opt.dest] = opt.type(value)
    except (ValueError, argparse.ArgumentTypeError):
        return None
    return i + 1


def _match(argv: list[str]) -> Optional[argparse.Namespace]:
    """The namespace build_parser() returns for a canonical argv, read from
    the command table; None for any other argv.  Canonical: exact global
    options, the exact command words, then the command's own exact options
    and its positionals in any order, where no positional and no value
    outside '--opt=value' starts with '-', every value converts, every
    required option is given and no positional is missing or extra.  Help,
    usage errors and every other form are left to argparse."""
    values = {o.dest: o.default for o in _GLOBAL}
    i = 0
    while i < len(argv) and argv[i].startswith("-"):
        i = _take(argv, i, _GLOBAL, values)
        if i is None:
            return None
    cmd = next((c for c in _COMMANDS if tuple(argv[i:i + len(c.words)]) == c.words), None)
    if cmd is None:
        return None
    values.update(zip(("command", "subcommand"), cmd.words))
    values.update((o.dest, o.default) for o in cmd.options if not o.required)
    positionals = []
    i += len(cmd.words)
    while i < len(argv):
        if argv[i].startswith("-"):
            i = _take(argv, i, cmd.options, values)
            if i is None:
                return None
        else:
            positionals.append(argv[i])
            i += 1
    if (len(positionals) != len(cmd.positionals)
            or any(o.dest not in values for o in cmd.options)):
        return None
    values.update(zip(cmd.positionals, positionals), fn=cmd.fn)
    return argparse.Namespace(**values)


def _add_options(parser: argparse.ArgumentParser, options) -> None:
    for o in options:
        kind = ({"action": "store_true"} if o.type is None else
                {"type": o.type, "default": o.default, "required": o.required})
        parser.add_argument(*o.flags, dest=o.dest, help=o.help, **kind)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the whole command table.  main() builds it
    only for the argvs _match leaves to it: help, usage errors and the
    non-canonical forms, which keep argparse's messages and exit code 2."""
    top = argparse.ArgumentParser(
        prog="bigla",
        description="Exact checks and constructions for bi-graded Lie algebras.")
    _add_options(top, _GLOBAL)
    subs = {(): top.add_subparsers(dest="command", required=True)}
    for cmd in _COMMANDS:
        group = cmd.words[:-1]
        if group not in subs:
            q = subs[()].add_parser(group[0], help=_GROUPS[group[0]])
            subs[group] = q.add_subparsers(dest="subcommand", required=True)
        q = subs[group].add_parser(cmd.words[-1], help=cmd.help)
        for name in cmd.positionals:
            q.add_argument(name)
        _add_options(q, cmd.options)
        q.set_defaults(fn=cmd.fn)
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _match(argv) or build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        code, result, lines = args.fn(args)
    except InputNotLie as exc:
        # unbraid, hc bch and every command that rewrites need a Lie bracket
        code, result = 1, {"ok": False, "error": str(exc)}
        lines = [f"not a Lie table: {exc}"]
    except (BiglaError, OSError) as exc:
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
