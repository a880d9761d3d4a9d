"""The command-table reader against argparse, its reference.

``main`` reads a canonical argv straight from the command table through
``_match`` and builds argparse only for the rest.  On every argv drawn
here, ``_match`` must either decline (None) or return the namespace
argparse returns, and it must decline every argv argparse refuses.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from bigla.cli import _COMMANDS, _GLOBAL, _Opt, _match, _size, build_parser

# value pools: (usual values, unusual ones drawn rarely)
SIZES = (["0", "3", "12", " 4", "1_0"], ["-1", "x", "2.5", ""])
SEEDS = (["0", "7", "123456789"], ["-3", "x", "1.5", "", "0x1"])
TEXTS = (["e1", "so3.json", "1/2*e1,e2", "x^2", "a b", ""], ["-e1", "-", "--x", "-x 1"])
POSITIONALS = (["so3.json", ""], ["-", "-a.json"])
STRAY = ["-h", "--help", "--", "--frobnicate", "-ofile", "-", "--json", "--seed"]


def _rarely(draw) -> bool:
    """True one time in ten: each malformed form is drawn this rarely, so
    that about half the argvs drawn are well formed."""
    return draw(st.sampled_from([False] * 9 + [True]))


def _pick(draw, pool):
    usual, unusual = pool
    return draw(st.sampled_from(unusual if _rarely(draw) else usual))


def _reference(argv):
    """argparse's namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return build_parser().parse_args(argv)
        except SystemExit:
            return None


def _values(opt: _Opt):
    return {int: SEEDS, _size: SIZES}.get(opt.type, TEXTS)


@st.composite
def _option_tokens(draw, opt: _Opt) -> list[str]:
    """One occurrence of opt, in an exact, abbreviated or joined form."""
    name = draw(st.sampled_from(opt.flags))
    if name.startswith("--") and _rarely(draw):
        name = name[:draw(st.integers(3, len(name)))]  # perhaps abbreviated
    if opt.type is None:
        return [name + ("=1" if _rarely(draw) else "")]
    value = _pick(draw, _values(opt))
    form = draw(st.sampled_from(["joined", "missing"] if _rarely(draw)
                                else ["space", "equals"]))
    return {"space": [name, value], "equals": [f"{name}={value}"],
            "joined": [name + value], "missing": [name]}[form]


@st.composite
def _argvs(draw) -> list[str]:
    cmd = draw(st.sampled_from(_COMMANDS))
    head = []
    for opt in draw(st.lists(st.sampled_from(_GLOBAL), max_size=3)):
        head += draw(_option_tokens(opt))
    words = list(cmd.words)
    if _rarely(draw):
        words = draw(st.sampled_from([words[:1], words + ["so3.json"],
                                      [w.upper() for w in words]]))
    chunks = []
    n_pos = len(cmd.positionals)
    if _rarely(draw):
        n_pos = max(0, n_pos + draw(st.sampled_from([-1, 1])))
    chunks += [[_pick(draw, POSITIONALS)] for _ in range(n_pos)]
    for opt in cmd.options:
        if opt.required and not _rarely(draw):
            repeats = draw(st.sampled_from([1, 1, 1, 2]))
        else:
            repeats = draw(st.sampled_from([0, 1, 2]))
        chunks += [draw(_option_tokens(opt)) for _ in range(repeats)]
    if _rarely(draw):
        chunks.append([draw(st.sampled_from(STRAY))])
    chunks = draw(st.permutations(chunks))
    return head + words + [t for chunk in chunks for t in chunk]


@settings(max_examples=400, deadline=None)
@given(_argvs())
def test_match_agrees_with_argparse(argv):
    expected = _reference(argv)
    got = _match(argv)
    if expected is None:
        assert got is None
    elif got is not None:
        assert vars(got) == vars(expected)


def _canonical(cmd, equals: bool) -> list[str]:
    values = {int: "5", _size: "2", str: "e1"}
    argv = ["--json", "--timing", "--seed", "3", *cmd.words,
            *(f"p{k}.json" for k in range(len(cmd.positionals)))]
    for opt in cmd.options:
        if opt.type is None:
            argv.append(opt.flags[-1])
        elif equals:
            argv.append(f"{opt.flags[-1]}={values[opt.type]}")
        else:
            argv += [opt.flags[-1], values[opt.type]]
    return argv


@pytest.mark.parametrize("equals", [False, True], ids=["space", "equals"])
@pytest.mark.parametrize("cmd", _COMMANDS, ids=lambda c: " ".join(c.words))
def test_every_command_has_a_fast_path(cmd, equals):
    # with all its options given, every entry of the table is read without
    # argparse, so the fast path cannot fall silently out of use
    argv = _canonical(cmd, equals)
    got = _match(argv)
    assert got is not None
    assert vars(got) == vars(_reference(argv))
