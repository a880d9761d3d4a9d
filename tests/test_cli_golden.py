"""Frozen CLI output: stdout and exit code of a fixed command list.

Every command runs against the catalog exported into a temporary
directory, and against the defective tables in BROKEN written next to it;
paths in the commands and in their output are written as ``{dir}``.  The recorded outputs live in ``cli_golden.json`` next to this
file.  To record them again, after a deliberate change of output, run

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import json
import os
import sys
import tempfile

from bigla.catalog import catalog
from bigla.cli import main
from bigla.schema import KIND_ASSOC

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_golden.json")

LIE = ("odd-pair", "qalgebra-lie", "qmat2-lie", "so12", "so3", "unitary2x2")

ZETA = {"zeta8": ["0", "1", "0", "0"]}

# Defective tables, written next to the exported catalog: (new file,
# catalog file, table row (left, right), added value term).  Each added
# term has the degree of the row's value, so the table stays homogeneous
# while Jacobi (or associativity) breaks.  The super file takes the same
# term on the same row of the unbraided table.
BROKEN = (
    ("broken-so3", "so3", (0, 1), {"basis": 1, "coeff": {"zeta8": ["1", "0", "0", "0"]}}),
    ("broken-qmat2-lie", "qmat2-lie", (0, 4), {"basis": 5, "coeff": ZETA}),
    ("broken-qmat2-lie-super", "qmat2-lie-super", (0, 4), {"basis": 5, "coeff": ZETA}),
    ("broken-qmat2", "qmat2", (0, 4), {"basis": 5, "coeff": ZETA}),
)

# Rewriting commands on the broken Lie tables: (file, uea nf word, bch x, y).
BROKEN_REWRITES = (
    ("broken-so3", "e3,e2,e1", "e1", "e2"),
    ("broken-qmat2-lie", "E12*q2,E21*q1", "E11", "E22"),
)

# hc bch on a broken Lie table where the order or the inputs leave no
# bracket to read, so only the up-front Lie check refuses the table:
# (file, x, y, order).
BROKEN_BCH = (
    ("broken-so3", "e1", "e1", "2"),
    ("broken-so3", "e1", "e2", "1"),
    ("broken-so3", "e1", "e2", "0"),
)

# A copy of so3-super.json whose involution flips only e2, so that the
# six nonzero brackets leave the eigenspace of their arguments' signs.
FLIPPED = ("flipped-so3-super", "so3-super", [1, -1, 1])

README = [
    ["examples", "list"],
    ["examples", "export", "so3", "-o", "{dir}/so3.json"],
    ["check", "{dir}/so3.json"],
    ["unbraid", "{dir}/so3.json", "-o", "{dir}/so3s.json"],
    ["check", "{dir}/so3s.json"],
    ["alpha-check", "{dir}/so3.json"],
    ["uea", "nf", "{dir}/so3.json", "--word", "e2,e1"],
    ["pbw", "dims", "{dir}/so3.json", "--n", "4"],
    ["uea", "hopf-check", "{dir}/so3.json", "--max-len", "3"],
    ["hc", "hom-dim", "{dir}/so3.json", "--n", "2"],
    ["hc", "conv-check", "{dir}/so3.json", "--n", "3", "--trials", "20"],
    ["hc", "bch", "{dir}/so3.json", "--x", "e1", "--y", "e2", "--n", "2"],
    ["hc", "inner-check", "--element", "reflection-diag"],
    ["hc", "inner-check", "--element", "rotation-x"],
    ["appendix", "star", "--f", "1+x", "--g", "1-x"],
    ["appendix", "character", "--f", "x^2+1", "--a", "2"],
    ["appendix", "iso-check", "--degree", "8", "--trials", "200"],
]

NF_BCH = {
    "so3": (["e3,e2,e1,e2"], [("e1", "e2,e3", "3"), ("1/2*e2", "-1*e3,e1", "2")]),
    "unitary2x2": (["y2,x1,h2,u1", "x2,x1,x2"],
                   [("u1", "h1", "3"), ("1/2*h1,u2", "-2*h2", "2")]),
    "qmat2-lie": (["E21*q2,E12*q1,E11", "E12*q2,E21*q1"],
                  [("E11", "E22", "2"), ("2*E11,E22", "-1/3*E22", "3")]),
}


def commands() -> list[list[str]]:
    out = [list(c) for c in README]
    for name in sorted(catalog()):
        path = f"{{dir}}/{name}.json"
        out += [["check", path], ["--json", "check", path]]
    for name in LIE:
        path, sup = f"{{dir}}/{name}.json", f"{{dir}}/{name}-super.json"
        out += [["check", sup], ["--json", "check", sup],
                ["unbraid", path], ["rebraid", sup],
                ["alpha-check", path], ["--json", "alpha-check", path],
                ["uea", "hopf-check", path, "--max-len", "2"],
                ["pbw", "dims", path, "--n", "4"],
                ["hc", "hom-dim", path, "--n", "4"],
                ["--seed", "11", "hc", "conv-check", path, "--n", "3", "--trials", "4"]]
    for name, (words, pairs) in NF_BCH.items():
        path = f"{{dir}}/{name}.json"
        for w in words:
            out += [["uea", "nf", path, "--word", w],
                    ["--json", "uea", "nf", path, "--word", w]]
        for x, y, n in pairs:
            out += [["hc", "bch", path, f"--x={x}", f"--y={y}", "--n", n],
                    ["--json", "hc", "bch", path, f"--x={x}", f"--y={y}", "--n", n]]
    for flags in ([], ["--json"]):
        out += [flags + ["appendix", "star", "--f=3/2*x^3 - x + 2", "--g=x^2 - 1/3*x"],
                flags + ["appendix", "character", "--f=x^3 + 2*x - 1", "--a", "3/2"],
                flags + ["--seed", "4", "appendix", "iso-check", "--degree", "5",
                         "--trials", "30"]]
    for name, source, _, _ in BROKEN:
        path = f"{{dir}}/{name}.json"
        out += [["check", path], ["--json", "check", path],
                ["check", "--homogeneity", path]]
        if source != "qmat2":
            out += [["check", "--antisymmetry", path], ["check", "--jacobi", path],
                    ["--json", "check", "--jacobi", "--antisymmetry", path]]
        if not source.endswith(("-super", "qmat2")):
            out += [["unbraid", path], ["--json", "unbraid", path],
                    ["alpha-check", path], ["--json", "alpha-check", path]]
    for name, word, x, y in BROKEN_REWRITES:
        path = f"{{dir}}/{name}.json"
        for flags in ([], ["--json"]):
            out += [flags + ["uea", "nf", path, "--word", word],
                    flags + ["uea", "hopf-check", path, "--max-len", "2"],
                    flags + ["hc", "bch", path, f"--x={x}", f"--y={y}", "--n", "2"]]
    out += [["hc", "bch", f"{{dir}}/{name}.json", f"--x={x}", f"--y={y}", "--n", n]
            for name, x, y, n in BROKEN_BCH]
    out += [["examples", "export", name] for name in sorted(catalog())]
    path = f"{{dir}}/{FLIPPED[0]}.json"
    out += [["check", path], ["--json", "check", path], ["rebraid", path]]
    # --json results of the commands that write a table or evaluate a
    # polynomial, whose human output prints only part of what they compute
    for name in LIE:
        out += [["--json", "unbraid", f"{{dir}}/{name}.json"],
                ["--json", "rebraid", f"{{dir}}/{name}-super.json"]]
    out += [["--json", "examples", "export", "so3"],
            ["--json", "appendix", "star", "--f", "1+x", "--g", "1-x"],
            ["--json", "appendix", "character", "--f", "x^2+1", "--a", "2"],
            ["--json", "appendix", "iso-check", "--degree", "8", "--trials", "200"]]
    return out


def _export(directory: str):
    for name, (kind, _) in sorted(catalog().items()):
        path = os.path.join(directory, f"{name}.json")
        assert main(["examples", "export", name, "-o", path]) == 0
        if kind == "lie":
            sup = os.path.join(directory, f"{name}-super.json")
            assert main(["unbraid", path, "-o", sup]) == 0
    for name, source, (left, right), term in BROKEN:
        with open(os.path.join(directory, f"{source}.json")) as fh:
            doc = json.load(fh)
        rows = doc["products" if doc["kind"] == KIND_ASSOC else "brackets"]
        row = next(r for r in rows if (r["left"], r["right"]) == (left, right))
        row["value"].append(term)
        with open(os.path.join(directory, f"{name}.json"), "w") as fh:
            json.dump(doc, fh)
    name, source, signs = FLIPPED
    with open(os.path.join(directory, f"{source}.json")) as fh:
        doc = json.load(fh)
    doc["involution"] = signs
    with open(os.path.join(directory, f"{name}.json"), "w") as fh:
        json.dump(doc, fh)


def run_all(directory: str, capture) -> list[dict]:
    """Run every command; capture() returns the stdout written since its
    last call."""
    _export(directory)
    capture()
    results = []
    for argv in commands():
        code = main([a.replace("{dir}", directory) for a in argv])
        out = capture().replace(directory, "{dir}")
        results.append({"argv": argv, "code": code, "stdout": out})
    return results


def test_cli_output_matches_the_recording(tmp_path, capsys):
    with open(GOLDEN) as fh:
        recorded = json.load(fh)
    got = run_all(str(tmp_path), lambda: capsys.readouterr().out)
    assert [r["argv"] for r in got] == [r["argv"] for r in recorded]
    for new, old in zip(got, recorded):
        assert (new["code"], new["stdout"]) == (old["code"], old["stdout"]), new["argv"]


if __name__ == "__main__":
    import contextlib
    import io

    buf = io.StringIO()

    def capture() -> str:
        text = buf.getvalue()
        buf.seek(0)
        buf.truncate()
        return text

    with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(buf):
        results = run_all(d, capture)
    with open(GOLDEN, "w") as fh:
        json.dump(results, fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(results)} commands in {GOLDEN}", file=sys.stderr)
