"""Frozen argparse output: help and usage errors of every command.

Each argv below stops in the argument parser, so no file is read and the
paths need not exist.  The recording holds stdout, stderr and the exit
code of the ``SystemExit`` argparse raises.  Help text is wrapped to the
terminal width, so COLUMNS is pinned to 80.  Argparse's layout also moves
between Python versions (3.13 wraps the long usage line differently from
3.10-3.12), so the recording holds for the interpreter it was made with,
Python 3.11.  The recorded outputs live in
``cli_usage_golden.json`` next to this file.  To record them again, after
a deliberate change of the parser, run

    PYTHONPATH=src python3 tests/test_cli_usage_golden.py
"""

import json
import os
import sys

from bigla.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "cli_usage_golden.json")

COMMANDS = {
    "check": (), "unbraid": (), "rebraid": (), "alpha-check": (),
    "uea": ("nf", "hopf-check"),
    "pbw": ("dims",),
    "hc": ("hom-dim", "conv-check", "bch", "inner-check"),
    "appendix": ("star", "iso-check", "character"),
    "examples": ("list", "export"),
}

ERRORS = [
    [],
    ["--json"],
    ["frobnicate"],
    ["hc"],
    ["hc", "frobnicate"],
    ["check"],
    ["check", "so3.json", "--frobnicate"],
    ["hc", "hom-dim", "so3.json"],
    ["hc", "hom-dim", "so3.json", "--n", "2", "--frobnicate"],
    ["uea", "nf", "so3.json"],
    ["appendix", "star", "--f", "x"],
    ["pbw", "dims", "so3.json", "--n", "-1"],
    ["hc", "conv-check", "so3.json", "--trials", "many"],
    ["--seed", "x", "check", "so3.json"],
    ["--seed", "1.5", "hc", "conv-check", "so3.json"],
    ["check", "a.json", "b.json"],
    ["check", "so3.json", "--jacobi=1"],
    ["hc", "bch", "so3.json", "--x", "-e1", "--y", "e2"],
    ["examples", "export", "so3", "-o"],
    ["--seed=x", "check", "so3.json"],
    ["check", "so3.json", "--", "--jacobi"],
]


def commands() -> list[list[str]]:
    out = [["--help"]]
    for name, subs in COMMANDS.items():
        out.append([name, "--help"])
        out += [[name, sub, "--help"] for sub in subs]
    return out + ERRORS


def run_all(capture) -> list[dict]:
    """Run every argv; capture() returns (stdout, stderr) written since its
    last call."""
    capture()
    results = []
    for argv in commands():
        try:
            main(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
        out, err = capture()
        results.append({"argv": argv, "code": code, "stdout": out, "stderr": err})
    return results


def test_help_and_usage_errors_match_the_recording(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with open(GOLDEN) as fh:
        recorded = json.load(fh)
    got = run_all(lambda: tuple(capsys.readouterr()))
    assert [r["argv"] for r in got] == [r["argv"] for r in recorded]
    for new, old in zip(got, recorded):
        assert new == old, new["argv"]


if __name__ == "__main__":
    import contextlib
    import io

    os.environ["COLUMNS"] = "80"
    out, err = io.StringIO(), io.StringIO()

    def capture() -> tuple[str, str]:
        texts = out.getvalue(), err.getvalue()
        for buf in (out, err):
            buf.seek(0)
            buf.truncate()
        return texts

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        results = run_all(capture)
    with open(GOLDEN, "w") as fh:
        json.dump(results, fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(results)} argvs in {GOLDEN}", file=sys.stderr)
