"""End-to-end command line behavior: exit codes, output shape, round trips."""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import bigla
from bigla import schema
from bigla.cli import _match, build_parser, main
from bigla.schema import dumps, scalar_to_json, to_doc
from bigla.catalog import catalog, odd_pair, so3, unitary_example
from bigla.deformed import EvenOddPoly
from bigla.equivalence import unbraid
from bigla.linalg import Echelon
from bigla.scalars import ONE, ZETA, CycloScalar
from bigla.uea import EnvelopingAlgebra

from test_catalog import catalog_lie
from test_cli_golden import GOLDEN, NF_BCH
from test_deformed import MUTATIONS


@pytest.fixture()
def so3_file(tmp_path):
    path = tmp_path / "so3.json"
    path.write_text(dumps(so3()))
    return str(path)


@pytest.fixture()
def unitary_file(tmp_path):
    path = tmp_path / "unitary.json"
    path.write_text(dumps(unitary_example()))
    return str(path)


@pytest.fixture()
def broken_file(tmp_path):
    # [e1,e2] = e3 + e2 stays homogeneous but breaks Jacobi; the mirror
    # entry is synthesized on load, so antisymmetry survives by construction
    doc = to_doc(so3())
    doc["brackets"][0]["value"].append(
        {"basis": 1, "coeff": scalar_to_json(ONE)})
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_examples_list(capsys):
    assert main(["examples", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("so3", "so12", "qalgebra", "unitary2x2", "odd-pair"):
        assert name in out
    assert "dim 8" in out


def test_examples_export_matches_dumps(tmp_path, capsys):
    path = tmp_path / "out.json"
    assert main(["examples", "export", "so3", "-o", str(path)]) == 0
    assert path.read_text() == dumps(so3())
    assert main(["examples", "export", "nothere"]) == 2
    assert "unknown example" in capsys.readouterr().err


def test_check_passes_on_catalog_file(so3_file, capsys):
    assert main(["check", so3_file]) == 0
    out = capsys.readouterr().out
    assert "antisymmetry: ok" in out
    assert "jacobi: ok" in out
    assert "homogeneity: ok" in out


def test_a_byte_order_mark_is_ignored(so3_file, tmp_path, capsys):
    """Files are read as bytes and decoded as UTF-8, so a leading byte-order
    mark changes nothing."""
    assert main(["check", so3_file]) == 0
    plain = capsys.readouterr()
    marked = tmp_path / "so3-bom.json"
    marked.write_bytes(b"\xef\xbb\xbf" + pathlib.Path(so3_file).read_bytes())
    assert main(["check", str(marked)]) == 0
    assert capsys.readouterr() == plain
    assert plain.out.count(": ok\n") == 3


def test_check_reports_violations(broken_file, capsys):
    assert main(["check", broken_file]) == 1
    out = capsys.readouterr().out
    assert "jacobi:" in out and "violation" in out
    assert "antisymmetry: ok" in out


def test_check_selector_flags(so3_file, broken_file, capsys):
    assert main(["check", "--jacobi", so3_file]) == 0
    out = capsys.readouterr().out
    assert "jacobi: ok" in out
    assert "antisymmetry" not in out
    # a selector that only inspects untouched axioms can pass a broken table
    assert main(["check", "--antisymmetry", broken_file]) == 0


class _JacobiRan(Exception):
    pass


def test_check_skips_the_jacobi_sweep_it_does_not_print(so3_file, tmp_path,
                                                         capsys, monkeypatch):
    import bigla.equivalence
    import bigla.lie

    super_file = str(tmp_path / "so3s.json")
    assert main(["unbraid", so3_file, "-o", super_file]) == 0
    runs = [[flag, path] for path in (so3_file, super_file)
            for flag in ("--antisymmetry", "--homogeneity")]
    capsys.readouterr()
    expected = []
    for argv in runs:
        assert main(["check"] + argv) == 0
        expected.append(capsys.readouterr().out)

    def refuse(*args, **kwargs):
        raise _JacobiRan

    # patched in every namespace that holds it by name
    for module in (bigla.lie, bigla.equivalence):
        if hasattr(module, "check_jacobi"):
            monkeypatch.setattr(module, "check_jacobi", refuse)
    # an unflagged check of either kind reaches the patched checker
    for path in (so3_file, super_file):
        with pytest.raises(_JacobiRan):
            main(["check", path])
    for argv, out in zip(runs, expected):
        assert main(["check"] + argv) == 0, argv
        assert capsys.readouterr().out == out, argv


def test_check_assoc_file(tmp_path, capsys):
    from bigla.catalog import algebra_B
    path = tmp_path / "q.json"
    path.write_text(dumps(algebra_B()))
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "associativity: ok" in out and "unit: ok" in out
    assert main(["check", "--antisymmetry", str(path)]) == 2


def test_check_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"kind\": \"bigraded-lie\"}")
    assert main(["check", str(bad)]) == 2
    assert main(["check", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("label", ["a,b", " e1", 1])
def test_check_refuses_labels_the_cli_cannot_address(label, tmp_path, capsys):
    doc = to_doc(so3())
    doc["basis"][0]["label"] = label
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_uea_nf_output(so3_file, capsys):
    assert main(["uea", "nf", so3_file, "--word", "e2,e1"]) == 0
    assert capsys.readouterr().out == "e1*e2 - e3\n"
    assert main(["uea", "nf", so3_file, "--word", "e1,e9"]) == 2


def test_uea_nf_refuses_long_words_before_any_rewriting(so3_file, capsys):
    # e3^30 e1^30 once rewrote for about 14 s and then passed the recursion
    # limit; a normal word at the bound is admitted
    assert main(["uea", "nf", so3_file, "--word", ",".join(["e1"] * 24)]) == 0
    assert capsys.readouterr().out == "e1" + "*e1" * 23 + "\n"
    word = ",".join(["e3"] * 30 + ["e1"] * 30)
    t0 = time.perf_counter()
    assert main(["uea", "nf", so3_file, "--word", word]) == 2
    assert time.perf_counter() - t0 < 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: word length 60 above the bound 24\n"


def test_unbraid_rebraid_round_trip(so3_file, tmp_path, capsys):
    super_path = tmp_path / "super.json"
    back_path = tmp_path / "back.json"
    assert main(["unbraid", so3_file, "-o", str(super_path)]) == 0
    assert main(["rebraid", str(super_path), "-o", str(back_path)]) == 0
    assert back_path.read_bytes() == pathlib.Path(so3_file).read_bytes()
    # rebraid demands the super kind
    assert main(["rebraid", so3_file]) == 2


def test_unbraid_rejects_non_lie(broken_file, capsys):
    assert main(["unbraid", broken_file]) == 1
    assert "not a Lie table" in capsys.readouterr().out


def test_no_command_reaches_elimination(tmp_path, monkeypatch, capsys):
    # elimination is the tests' oracle: the catalog and the inner check,
    # its last runtime callers, must finish with the same codes without it
    def refuse(self, row):
        raise AssertionError("a command reached Echelon.add_row")
    monkeypatch.setattr(Echelon, "add_row", refuse)
    for name in catalog():
        assert main(["examples", "export", name, "-o", str(tmp_path / name)]) == 0
    assert main(["hc", "inner-check", "--element", "reflection-diag"]) == 0
    assert main(["hc", "inner-check", "--element", "rotation-x"]) == 1


@pytest.mark.parametrize("argv,kind", [
    (["uea", "nf", "{file}", "--word", "e2,e1"], "bigraded-lie"),
    (["uea", "hopf-check", "{file}"], "bigraded-lie"),
    (["pbw", "dims", "{file}"], "bigraded-lie"),
    (["hc", "hom-dim", "{file}", "--n", "2"], "bigraded-lie"),
    (["hc", "conv-check", "{file}"], "bigraded-lie"),
    (["hc", "bch", "{file}", "--x", "e1", "--y", "e1"], "bigraded-lie"),
    (["alpha-check", "{file}"], "bigraded-lie"),
    (["unbraid", "{file}"], "bigraded-lie"),
    (["rebraid", "{file}"], "super-lie-involution"),
], ids=lambda v: " ".join(a for a in v[:2] if a[0] not in "{-")
   if isinstance(v, list) else None)
def test_a_file_of_the_wrong_kind_exits_2(argv, kind, so3_file, tmp_path, capsys):
    # a Lie command gets the super companion of so3, rebraid gets so3 itself
    path = so3_file
    if kind == "bigraded-lie":
        path = str(tmp_path / "so3-super.json")
        assert main(["unbraid", so3_file, "-o", path]) == 0
        capsys.readouterr()
    assert main([a.format(file=path) for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: expected kind {kind}\n")


def test_alpha_check(so3_file, broken_file, capsys):
    assert main(["alpha-check", so3_file]) == 0
    out = capsys.readouterr().out
    assert "triples checked: 27 (alpha +1 on 7, -1 on 20)" in out
    assert "twist transfer identity: ok" in out
    # the identity is about the twist, not about Jacobi, so broken input passes
    assert main(["alpha-check", broken_file]) == 0
    assert "twist transfer identity: ok" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(catalog_lie()))
def test_alpha_check_counts_every_triple_by_its_sign(tmp_path, capsys, name):
    # the counts come from degree classes; count the n^3 triples one by one
    g = catalog_lie()[name]
    path = tmp_path / f"{name}.json"
    path.write_text(dumps(g))
    degs = g.space.degrees
    minus = sum((degs[a].eps1 * degs[b].eps2 + degs[b].eps1 * degs[c].eps2
                 + degs[c].eps1 * degs[a].eps2) % 2
                for a in range(g.dim) for b in range(g.dim) for c in range(g.dim))
    assert main(["--json", "alpha-check", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["triples"], doc["alpha_plus"], doc["alpha_minus"]) == \
        (g.dim ** 3, g.dim ** 3 - minus, minus)
    if name == "so3":
        assert (doc["alpha_plus"], doc["alpha_minus"]) == (7, 20)


def test_hopf_check(so3_file, broken_file, capsys):
    assert main(["uea", "hopf-check", so3_file, "--max-len", "2"]) == 0
    out = capsys.readouterr().out
    for key in ("antipode", "coassociativity", "cocommutativity", "counit",
                "multiplicativity", "weyl"):
        assert f"{key}: ok" in out
    # a bracket that breaks Jacobi is refused at the first rewriting step
    assert main(["uea", "hopf-check", broken_file, "--max-len", "3"]) == 1
    assert capsys.readouterr().out == ("not a Lie table: so3 fails: jacobi at "
                                       "[(0, 1, 2), (0, 2, 1), (1, 0, 2)]\n")


def test_hopf_check_refuses_long_words_before_any_sweep(so3_file, capsys):
    # weyl_map refuses words past MAX_TRUNCATION; the sweeps before it
    # would otherwise run over every word of length <= 7 first
    t0 = time.perf_counter()
    assert main(["uea", "hopf-check", so3_file, "--max-len", "7"]) == 2
    assert time.perf_counter() - t0 < 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: word length 7 above the bound 6\n"


@pytest.mark.parametrize("n", ["9", "1000000000000"])
def test_hopf_check_bounds_the_words_not_the_flag(n, tmp_path, capsys):
    # odd-pair's normal words stop at length 2, so a long --max-len is
    # fine, and the enumeration stops there too
    path = tmp_path / "odd-pair.json"
    path.write_text(dumps(odd_pair()))
    t0 = time.perf_counter()
    assert main(["uea", "hopf-check", str(path), "--max-len", n]) == 0
    assert time.perf_counter() - t0 < 1
    assert capsys.readouterr().out.startswith(f"words up to length {n}: 4\n")


@pytest.mark.parametrize("argv,out", [
    (["pbw", "dims", "{f}", "--n", "3"], "enumeration matches the formula\n"),
    (["hc", "hom-dim", "{f}", "--n", "3"], "at truncation 3: 1\n"),
    (["hc", "conv-check", "{f}", "--n", "3", "--trials", "3"], "all commute\n"),
])
def test_commands_that_never_rewrite_never_check_the_bracket(argv, out, broken_file,
                                                             monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("require_lie called")
    monkeypatch.setattr("bigla.uea.require_lie", refuse)
    assert main([a.replace("{f}", broken_file) for a in argv]) == 0
    assert capsys.readouterr().out.endswith(out)


def test_pbw_dims(so3_file, capsys):
    assert main(["pbw", "dims", so3_file, "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "degree 4: 15 normal words, formula 15" in out
    assert "enumeration matches the formula" in out


def test_hom_dim(so3_file, unitary_file, capsys):
    assert main(["hc", "hom-dim", so3_file, "--n", "2"]) == 0
    assert "dimension at truncation 2: 1" in capsys.readouterr().out
    # truncation below the exterior letter count is refused as usage error
    assert main(["hc", "hom-dim", unitary_file, "--n", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_hom_dim_cost_does_not_grow_with_the_truncation(unitary_file, capsys):
    # the basis is read off the 2^4 exterior words; no word of length 200
    # is ever built
    t0 = time.perf_counter()
    assert main(["hc", "hom-dim", unitary_file, "--n", "200"]) == 0
    assert time.perf_counter() - t0 < 5
    assert capsys.readouterr().out == (
        "equivariant functional dimension at truncation 200: 16\n")


@pytest.mark.parametrize("algebra,n", [(so3, "400"), (odd_pair, "1000000000000")])
def test_pbw_dims_is_bounded_before_enumerating(algebra, n, tmp_path, capsys):
    # the formula counts first: so3 holds about 1.1e7 normal words up to
    # degree 400; odd-pair has none past degree 2, but each degree is a line
    path = tmp_path / "g.json"
    path.write_text(dumps(algebra()))
    t0 = time.perf_counter()
    assert main(["pbw", "dims", str(path), "--n", n]) == 2
    assert time.perf_counter() - t0 < 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: degrees 0..{n} and their normal words number "
                       "more than 1000000\n")


LINE = {"basis": [{"degree": [0, 0], "label": "x"}], "brackets": [],
        "kind": "bigraded-lie", "name": "line"}


@pytest.mark.parametrize("doc,n", [(LINE, "1100"),
                                   (to_doc(catalog_lie()["qalgebra-lie"]), "706")])
def test_pbw_dims_counts_long_words_without_recursion(doc, n, tmp_path, capsys):
    # one polynomial letter has one normal word per degree, and 706 is the
    # largest degree the bound admits on qalgebra-lie: the count walks the
    # step table level by level, so neither depth nor length costs a frame
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    assert main(["pbw", "dims", str(path), "--n", n]) == 0
    assert time.perf_counter() - t0 < 5
    assert capsys.readouterr().out.endswith("enumeration matches the formula\n")


def test_conv_check(so3_file, capsys):
    assert main(["--seed", "3", "hc", "conv-check", so3_file,
                 "--n", "2", "--trials", "5"]) == 0
    assert "all commute" in capsys.readouterr().out


def test_conv_check_expands_no_coproduct(tmp_path, monkeypatch, capsys):
    """conv-check convolves from the functionals' supports: with every
    delta_word made to raise it still runs, and every pair commutes."""
    def refuse(*args):
        raise AssertionError("delta_word called")
    monkeypatch.setattr("bigla.uea.delta_word", refuse)
    monkeypatch.setattr("bigla.hc.delta_word", refuse, raising=False)
    path = tmp_path / "qmat2-lie.json"
    path.write_text(dumps(catalog_lie()["qmat2-lie"]))
    assert main(["hc", "conv-check", str(path), "--n", "6", "--trials", "3"]) == 0
    assert "all commute" in capsys.readouterr().out


def test_bch_rewrites_nothing(tmp_path, monkeypatch, capsys):
    """hc bch sums brackets in g: with PBW rewriting made to raise, the bch
    commands of the golden recording print their recorded bytes."""
    def refuse(*args):
        raise AssertionError("hc bch reached PBW rewriting")
    monkeypatch.setattr(EnvelopingAlgebra, "_rewrite_at", refuse)
    monkeypatch.setattr(EnvelopingAlgebra, "normal_form", refuse)
    with open(GOLDEN) as fh:
        recorded = {tuple(r["argv"]): r for r in json.load(fh)}
    for name, (_, pairs) in NF_BCH.items():
        (tmp_path / f"{name}.json").write_text(dumps(catalog_lie()[name]))
        for x, y, n in pairs:
            for flags in ([], ["--json"]):
                argv = flags + ["hc", "bch", f"{{dir}}/{name}.json",
                                f"--x={x}", f"--y={y}", "--n", n]
                code = main([a.replace("{dir}", str(tmp_path)) for a in argv])
                out = capsys.readouterr().out.replace(str(tmp_path), "{dir}")
                want = recorded[tuple(argv)]
                assert (code, out) == (want["code"], want["stdout"]), argv


def test_bch_guards_come_before_the_lie_check(broken_file, tmp_path, capsys):
    """On tables that fail Jacobi, an order above the bound and an odd input
    are refused as usage errors before the table is checked; then the table
    is refused even where no bracket would be read."""
    assert main(["hc", "bch", broken_file, "--x", "e1", "--y", "e2", "--n", "7"]) == 2
    assert capsys.readouterr() == ("", "error: order 7 above the bound 6\n")
    doc = to_doc(catalog_lie()["qmat2-lie"])
    row = next(r for r in doc["brackets"] if (r["left"], r["right"]) == (0, 4))
    row["value"].append({"basis": 5, "coeff": scalar_to_json(ZETA)})
    path = str(tmp_path / "broken-qmat2-lie.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert main(["hc", "bch", path, "--x", "E12*q1", "--y", "E11"]) == 2
    assert capsys.readouterr() == (
        "", "error: exponential inputs must be parity-even\n")
    assert main(["hc", "bch", path, "--x", "E11", "--y", "E11", "--n", "0"]) == 1
    assert capsys.readouterr().out.startswith("not a Lie table: ")
    assert main(["hc", "bch", broken_file, "--x", "e1", "--y", "e1", "--n", "2"]) == 1
    assert capsys.readouterr().out == ("not a Lie table: so3 fails: jacobi at "
                                       "[(0, 1, 2), (0, 2, 1), (1, 0, 2)]\n")


def test_bch(so3_file, capsys):
    assert main(["hc", "bch", so3_file, "--x", "e1", "--y", "e2",
                 "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "log(exp(x) exp(y)) to order 2: e1 + e2 + 1/2*e3" in out
    assert "result is primitive" in out
    assert main(["hc", "bch", so3_file, "--x", "e9", "--y", "e2"]) == 2
    capsys.readouterr()
    assert main(["hc", "bch", so3_file, "--x", "bogus*e1", "--y", "e2"]) == 2


@pytest.mark.parametrize("x,y,log", [
    ("E11*q3", "E22", "E22 + E11*q3"),
    ("2*E11*q3", "E22", "E22 + 2*E11*q3"),
    ("E11*q3", "E11,E22*q3", "E11 + E11*q3 + E22*q3"),
])
def test_bch_reads_labels_that_contain_a_star(x, y, log, tmp_path, capsys):
    # the logs are those printed for the explicit 1*E11*q3 and 1*E22*q3
    path = tmp_path / "qmat2-lie.json"
    path.write_text(dumps(catalog_lie()["qmat2-lie"]))
    assert main(["hc", "bch", str(path), f"--x={x}", f"--y={y}", "--n", "3"]) == 0
    assert capsys.readouterr().out == (f"log(exp(x) exp(y)) to order 3: {log}\n"
                                       "result is primitive\n")


def test_inner_check(capsys):
    assert main(["hc", "inner-check", "--element", "reflection-diag"]) == 0
    assert "implements the degree involution" in capsys.readouterr().out
    assert main(["hc", "inner-check", "--element", "rotation-x"]) == 1
    assert "does not implement" in capsys.readouterr().out
    assert main(["hc", "inner-check", "--element", "glide"]) == 2


def test_appendix_star(capsys):
    assert main(["appendix", "star", "--f", "1 + x", "--g", "1 - x"]) == 0
    assert capsys.readouterr().out == "x^2 + 1\n"
    assert main(["appendix", "star", "--f", "y", "--g", "1"]) == 2


def test_appendix_iso_check(capsys):
    assert main(["--seed", "5", "appendix", "iso-check",
                 "--trials", "40", "--degree", "6"]) == 0
    out = capsys.readouterr().out
    assert "untwisting is multiplicative" in out
    assert "products differ" in out


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_appendix_iso_check_reports_failures(mutation, monkeypatch, capsys):
    name, value, _ = MUTATIONS[mutation]
    monkeypatch.setattr(f"bigla.deformed.{name}", value)
    assert main(["--seed", "8", "appendix", "iso-check",
                 "--degree", "8", "--trials", "200"]) == 1
    assert capsys.readouterr().out == (
        "191 multiplicativity FAILURES\n"
        "star square of x: -x^2 vs pointwise x^2 (products differ)\n")


def test_appendix_character(capsys):
    assert main(["appendix", "character", "--f", "1 + x", "--a", "0"]) == 0
    assert "[R]" in capsys.readouterr().out
    assert main(["appendix", "character", "--f", "1 + x", "--a", "1"]) == 0
    assert "[C]" in capsys.readouterr().out
    assert main(["appendix", "character", "--f", "1 + x", "--a", "-1"]) == 2
    assert main(["appendix", "character", "--f", "1 + x", "--a", "w"]) == 2


@pytest.mark.parametrize("argv", [
    ["check", "{zero_coeff}"],
    ["hc", "bch", "{so3}", "--x", "1/0*e1", "--y", "e2"],
    ["appendix", "character", "--f", "1 + x", "--a", "1/0"],
    ["appendix", "star", "--f", "1/0*x", "--g", "1"],
], ids=["json-coefficient", "bch-vector", "character-point", "star-polynomial"])
def test_zero_denominator_in_input_is_a_usage_error(argv, so3_file, tmp_path, capsys):
    doc = to_doc(so3())
    doc["brackets"][0]["value"][0]["coeff"] = {"zeta8": ["1/0", "0", "0", "0"]}
    zero_coeff = tmp_path / "zero.json"
    zero_coeff.write_text(json.dumps(doc))
    argv = [a.format(so3=so3_file, zero_coeff=zero_coeff) for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["check", "{exponent}"],
    ["hc", "bch", "{so3}", "--x=1e9999999*e1", "--y=e2"],
    ["appendix", "character", "--f=x^2", "--a", "1e9999999"],
], ids=["json-coefficient", "bch-vector", "character-point"])
def test_exponent_notation_is_a_quick_usage_error(argv, so3_file, tmp_path, capsys):
    # Fraction would expand the exponent into ten million digits first
    doc = to_doc(so3())
    doc["brackets"][0]["value"][0]["coeff"] = {"zeta8": ["1e9999999", "0", "0", "0"]}
    exponent = tmp_path / "exponent.json"
    exponent.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    assert main([a.format(so3=so3_file, exponent=exponent) for a in argv]) == 2
    assert time.perf_counter() - t0 < 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'1e9999999'" in err


@pytest.mark.parametrize("coef, reason", [
    ("1/0", "zero denominator in '1/0'"),
    ("1e3", "exponent notation in '1e3'"),
])
def test_bch_coefficient_errors_keep_the_reason(coef, reason, so3_file, capsys):
    assert main(["hc", "bch", so3_file, "--x", f"{coef}*e1", "--y", "e2"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: bad coefficient {coef!r}: {reason}\n"


@pytest.mark.parametrize("argv", [["check", "{nested}"],
                                  ["uea", "nf", "{nested}", "--word", "e1"]])
def test_deeply_nested_json_is_a_one_line_usage_error(argv, tmp_path, capsys):
    # json.loads recurses once per level and meets the interpreter's limit
    path = tmp_path / "nested.json"
    path.write_text("[" * 1200 + "]" * 1200)
    assert main([a.format(nested=path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: JSON nested deeper than the parser allows\n"


@pytest.mark.parametrize("argv", [
    ["pbw", "dims", "{so3}", "--n", "-1"],
    ["hc", "hom-dim", "{so3}", "--n", "-1"],
    ["hc", "conv-check", "{so3}", "--n", "-1"],
    ["hc", "conv-check", "{so3}", "--trials", "-3"],
    ["hc", "bch", "{so3}", "--x", "e1", "--y", "e2", "--n", "-1"],
    ["uea", "hopf-check", "{so3}", "--max-len", "-1"],
    ["appendix", "iso-check", "--degree", "-1"],
    ["appendix", "iso-check", "--trials", "-1"],
], ids=lambda argv: " ".join(a for a in argv if a != "{so3}"))
def test_negative_size_flags_are_refused(argv, so3_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main([a.format(so3=so3_file) for a in argv])
    assert exc.value.code == 2
    assert "non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("argv,err", [
    (["hc", "conv-check", "{unitary}", "--n", "7"],
     "error: truncation 7 above the bound 6\n"),
    (["hc", "bch", "{unitary}", "--x", "u1", "--y", "u2", "--n", "7"],
     "error: order 7 above the bound 6\n"),
    (["appendix", "character", "--f", "x^99999999", "--a", "2"],
     "error: degree 99999999 above the bound 64\n"),
    (["--seed", "0", "appendix", "iso-check", "--degree", "33", "--trials", "1"],
     "error: degree 33 products reach degree 66, above the bound 64\n"),
    (["--seed", "1", "appendix", "iso-check", "--degree", "33", "--trials", "1"],
     "error: degree 33 products reach degree 66, above the bound 64\n"),
    (["hc", "conv-check", "{unitary}", "--trials", "100000000"],
     "error: 100000000 trials of 129 normal words come to 12900000000, "
     "above the bound 60000\n"),
    (["appendix", "iso-check", "--trials", "100000000"],
     "error: 100000000 trials of 9 powers per polynomial come to 900000000, "
     "above the bound 60000\n"),
    (["hc", "conv-check", "{unitary}", "--n", "6", "--trials", "47"],
     "error: 47 trials of 1289 normal words come to 60583, above the bound 60000\n"),
    (["appendix", "iso-check", "--degree", "32", "--trials", "1819"],
     "error: 1819 trials of 33 powers per polynomial come to 60027, "
     "above the bound 60000\n"),
], ids=["conv-check", "bch", "character", "iso-check-seed0", "iso-check-seed1",
        "conv-check-trials", "iso-check-trials", "conv-check-work", "iso-check-work"])
def test_size_flags_above_the_truncation_bound_are_refused(argv, err, unitary_file,
                                                           capsys):
    t0 = time.perf_counter()
    assert main([a.format(unitary=unitary_file) for a in argv]) == 2
    assert time.perf_counter() - t0 < 1
    assert capsys.readouterr().err == err


def test_json_output_is_sorted_and_valid(so3_file, capsys):
    assert main(["--json", "check", so3_file]) == 0
    text = capsys.readouterr().out
    doc = json.loads(text)
    assert doc["ok"] is True
    assert doc["checks"] == {"antisymmetry": [], "homogeneity": [],
                             "jacobi": []}
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_output_is_deterministic_unless_timed(so3_file, capsys):
    assert main(["check", so3_file]) == 0
    first = capsys.readouterr().out
    assert main(["check", so3_file]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "elapsed" not in first
    assert main(["--timing", "check", so3_file]) == 0
    timed = capsys.readouterr().out
    assert timed.startswith(first)  # timing only ever appends
    assert timed.splitlines()[-1].startswith("elapsed:")
    assert main(["--json", "--timing", "check", so3_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "elapsed_s" in doc


@pytest.fixture()
def built_parsers(monkeypatch):
    """The prog of every ArgumentParser constructed while the test runs."""
    init = argparse.ArgumentParser.__init__
    built = []

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


@pytest.mark.parametrize("argv,levels", [
    (["check", "{so3}"], 2),
    (["unbraid", "{so3}"], 2),
    (["rebraid", "{super}"], 2),
    (["alpha-check", "{so3}"], 2),
    (["uea", "nf", "{so3}", "--word", "e2,e1"], 3),
    (["uea", "hopf-check", "{so3}", "--max-len", "1"], 3),
    (["pbw", "dims", "{so3}", "--n", "2"], 3),
    (["hc", "hom-dim", "{so3}", "--n", "2"], 3),
    (["hc", "conv-check", "{so3}", "--n", "2", "--trials", "1"], 3),
    (["hc", "bch", "{so3}", "--x", "e1", "--y", "e2", "--n", "1"], 3),
    (["hc", "inner-check", "--element", "rotation-x"], 3),
    (["appendix", "star", "--f", "x", "--g", "x"], 3),
    (["appendix", "iso-check", "--degree", "1", "--trials", "1"], 3),
    (["appendix", "character", "--f", "x", "--a", "2"], 3),
    (["examples", "list"], 3),
    (["examples", "export", "so3"], 3),
], ids=lambda v: " ".join(a for a in v[:2] if a[0] not in "{-")
   if isinstance(v, list) else None)
def test_a_command_builds_only_its_own_parsers(argv, levels, so3_file, tmp_path,
                                               built_parsers, monkeypatch, capsys):
    # a canonical argv is read from the command table and builds no parser;
    # argparse, the reference, reads it through `levels` parsers: the top
    # level, the group of a grouped command and the command
    super_file = str(tmp_path / "super.json")
    assert main(["unbraid", so3_file, "-o", super_file]) == 0
    argv = [a.format(so3=so3_file, super=super_file) for a in argv]
    main(argv)
    assert built_parsers == []
    parse = argparse.ArgumentParser.parse_known_args
    parsed = []

    def counting_parse(self, *args, **kwargs):
        parsed.append(self.prog)
        return parse(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting_parse)
    assert build_parser().parse_args(argv) == _match(argv)
    assert len(parsed) == levels, parsed


def test_a_usage_error_builds_the_whole_parser(so3_file, built_parsers, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", so3_file, "--frobnicate"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --frobnicate" in capsys.readouterr().err
    assert len(built_parsers) == 22  # top level, 5 groups, 16 commands


@pytest.mark.parametrize("argv,code", [
    (["examples", "list"], 0),
    (["hc", "inner-check", "--element", "rotation-x"], 1),
], ids=["examples-list", "inner-check-fails"])
def test_a_closed_stdout_ends_quietly_with_the_command_code(argv, code):
    # the reader is gone before the command writes, as with `| head -0`
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(bigla.__file__).parent.parent))
    try:
        proc = subprocess.run([sys.executable, "-m", "bigla.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == code


def test_a_utf8_file_loads_under_an_ascii_locale(tmp_path):
    """JSON interchange is UTF-8 (RFC 8259, section 8.1): a file loads the
    same whatever encoding the locale names."""
    doc = to_doc(so3())
    doc["basis"][0]["label"] = "\u00e9"
    path = tmp_path / "accent.json"
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(bigla.__file__).parent.parent),
               LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    proc = subprocess.run([sys.executable, "-m", "bigla.cli", "check", str(path)],
                          capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == b"antisymmetry: ok\nhomogeneity: ok\njacobi: ok\n"


@pytest.mark.parametrize("argv", [
    ["unbraid", "{dir}/so3.json"],
    ["rebraid", "{dir}/so3-super.json"],
    ["examples", "export", "so3", "-o", "{dir}/out.json"],
], ids=["unbraid", "rebraid", "export-o"])
def test_a_table_in_human_output_builds_no_document(argv, tmp_path, monkeypatch,
                                                    capsys):
    """A table printed or written as text is written straight from the
    algebra: no document dict, no json.dumps."""
    sup = dumps(unbraid(so3()))
    (tmp_path / "so3.json").write_text(dumps(so3()))
    (tmp_path / "so3-super.json").write_text(sup)
    calls = []
    for owner, name in ((schema, "to_doc"), (json, "dumps")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _real=real, _name=name, **kw:
                            calls.append(_name) or _real(*a, **kw))
    assert main([a.format(dir=tmp_path) for a in argv]) == 0
    out = capsys.readouterr().out
    assert calls == []
    if argv[0] == "examples":
        assert out == f"wrote {tmp_path}/out.json\n"
        assert (tmp_path / "out.json").read_text() == dumps(so3())
    else:
        assert out == (sup if argv[0] == "unbraid" else dumps(so3()))


@pytest.mark.parametrize("argv, counts", [
    (["appendix", "star", "--f", "1+x", "--g", "1-x"],
     {"polynomial": 1, "scalar": 2, "pointwise": 0}),
    # the distinguisher's certificate holds the pointwise square of x
    (["appendix", "iso-check", "--degree", "3", "--trials", "2"],
     {"polynomial": 2, "scalar": 2, "pointwise": 1}),
    (["appendix", "character", "--f", "x^2+1", "--a", "2"],
     {"polynomial": 0, "scalar": 1, "pointwise": 0}),
], ids=["star", "iso-check", "character"])
def test_appendix_human_output_renders_each_string_once(argv, counts, monkeypatch,
                                                         capsys):
    """The appendix commands print one or two values: they render those once
    and build the --json result, with its extra strings and the pointwise
    product, only under --json.  A polynomial prints each coefficient
    through the scalar printer."""
    calls = dict.fromkeys(counts, 0)
    for owner, name, key in ((EvenOddPoly, "pretty", "polynomial"),
                             (CycloScalar, "pretty", "scalar"),
                             (EvenOddPoly, "pointwise_mul", "pointwise")):
        real = getattr(owner, name)

        def counted(*a, _real=real, _key=key):
            calls[_key] += 1
            return _real(*a)
        monkeypatch.setattr(owner, name, counted)
    assert main(argv) == 0
    assert calls == counts


def test_timing_extends_results_built_only_under_json(so3_file, capsys):
    assert main(["--timing", "unbraid", so3_file]) == 0
    text, last = capsys.readouterr().out.rsplit("elapsed: ", 1)
    assert text == dumps(unbraid(so3()))
    assert last.endswith("s\n")
    for argv in (["unbraid", so3_file], ["appendix", "star", "--f", "x", "--g", "x"]):
        assert main(["--json", "--timing", *argv]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "elapsed_s" in doc
        assert ("kind" in doc) if argv[0] == "unbraid" else (doc["star"] == "-x^2")
