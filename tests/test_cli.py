"""End-to-end command line behavior: exit codes, output shape, round trips."""

import json
import pathlib
import time

import pytest

from bigla.cli import main
from bigla.schema import dumps, scalar_to_json, to_doc
from bigla.catalog import catalog_lie, odd_pair, so3, unitary_example
from bigla.scalars import ONE


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
    with pytest.raises(_JacobiRan):
        main(["check", so3_file])
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


def test_alpha_check(so3_file, broken_file, capsys):
    assert main(["alpha-check", so3_file]) == 0
    out = capsys.readouterr().out
    assert "triples checked: 27 (alpha +1 on 7, -1 on 20)" in out
    assert "twist transfer identity: ok" in out
    # the identity is about the twist, not about Jacobi, so broken input passes
    assert main(["alpha-check", broken_file]) == 0
    assert "twist transfer identity: ok" in capsys.readouterr().out


def test_hopf_check(so3_file, broken_file, capsys):
    assert main(["uea", "hopf-check", so3_file, "--max-len", "2"]) == 0
    out = capsys.readouterr().out
    for key in ("antipode", "coassociativity", "cocommutativity", "counit",
                "multiplicativity", "weyl"):
        assert f"{key}: ok" in out
    # broken Jacobi shows up in the antipode of the first word that needs it
    assert main(["uea", "hopf-check", broken_file, "--max-len", "3"]) == 1
    assert "antipode: 1 failure(s)\n  e1*e2*e3\n" in capsys.readouterr().out


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


def test_conv_check(so3_file, capsys):
    assert main(["--seed", "3", "hc", "conv-check", so3_file,
                 "--n", "2", "--trials", "5"]) == 0
    assert "all commute" in capsys.readouterr().out


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
    assert main(["hc", "inner-check", "--rep", "other",
                 "--element", "rotation-x"]) == 2


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
], ids=["conv-check", "bch", "character", "iso-check-seed0", "iso-check-seed1"])
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
