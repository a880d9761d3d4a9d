"""A malformed file never escapes ``main`` as a traceback.

Each example takes an exported catalog file, or the super companion of a
Lie one, and makes one to three random edits to its JSON: a junk value
in place of a number, string or list, a deleted key or list entry, or a
repeated basis letter, table row or term.  The cheap commands then run
on it in process.  None may raise; each exits 0, 1 or 2, and an exit 2
writes exactly one line to stderr, starting ``error:``.  The commands
address letters by the labels of the unedited file.

A second property makes edits that keep the file loadable: a coefficient
component set to another small rational, a dropped table row, a letter
moved to another degree.  The table may stop being a Lie algebra, which
``check`` diagnoses, so it never exits 2; an exit 1 writes nothing to
stderr, and from the commands that need a Lie bracket its first line is
the ``not a Lie table:`` report.
"""

import contextlib
import copy
import io
import json

import pytest

from bigla.catalog import catalog
from bigla.cli import main
from bigla.equivalence import unbraid
from bigla.schema import dumps

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
example, given, settings = hypothesis.example, hypothesis.given, hypothesis.settings


def _files():
    out = {}
    for name, (kind, make) in catalog().items():
        a = make()
        out[name] = dumps(a)
        if kind == "lie":
            out[f"{name}-super"] = dumps(unbraid(a))
    return out


FILES = _files()

JUNK = (None, True, False, 0, -1, 2, 1.5, 10 ** 30, "", "x", "1/0", "-3/4",
        "1e3", [], {}, [0], {"zeta8": 1})


def _children(node):
    """(container, key) for every node below node, depth first."""
    keys = node if isinstance(node, dict) else range(len(node))
    for key in list(keys):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _children(node[key])


def _fits(edit, container, key):
    """Junk replaces a value that is no object, a deletion takes a key or a
    list entry, and a repeat copies an object in a list: a basis letter, a
    table row or a term."""
    if edit == "junk":
        return not isinstance(container[key], dict)
    return edit == "delete" or (isinstance(container, list)
                                and isinstance(container[key], dict))


@st.composite
def edited_files(draw):
    """(file name, edited file text)."""
    name = draw(st.sampled_from(sorted(FILES)))
    doc = json.loads(FILES[name])
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(("junk", "delete", "repeat")))
        places = [(c, k) for c, k in _children(doc) if _fits(edit, c, k)]
        if not places:
            continue
        container, key = draw(st.sampled_from(places))
        if edit == "junk":
            container[key] = copy.deepcopy(draw(st.sampled_from(JUNK)))
        elif edit == "delete":
            del container[key]
        else:
            container.insert(key, copy.deepcopy(container[key]))
    return name, json.dumps(doc)


def _commands(path, basis):
    """The commands run on each edited file; bch takes parity-even letters
    where the unedited file has them."""
    labels = [b["label"] for b in basis]
    even = [b["label"] for b in basis if sum(b["degree"]) % 2 == 0] or labels
    x, y = even[0], even[-1]
    return [["check", path], ["unbraid", path], ["rebraid", path],
            ["alpha-check", path], ["pbw", "dims", path, "--n", "4"],
            ["uea", "nf", path, "--word", f"{labels[-1]},{labels[0]}"],
            ["hc", "hom-dim", path, "--n", "2"],
            ["hc", "bch", path, "--x", x, "--y", y, "--n", "2"]]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("edited")


def _run(workdir, name, text):
    """(argv, exit code, stdout, stderr) of each command on the edited file,
    after checking that the code is 0, 1 or 2 and that an exit 2 writes
    one stderr line, starting 'error:'."""
    path = workdir / "edited.json"
    path.write_text(text)
    runs = []
    for argv in _commands(str(path), json.loads(FILES[name])["basis"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), (argv, lines)
        runs.append((argv, code, out.getvalue(), err.getvalue()))
    return runs


@settings(max_examples=60, deadline=None)
@given(edited_files())
def test_an_edited_file_exits_0_1_or_2_with_one_error_line(workdir, edited):
    _run(workdir, *edited)


DEGREES = ([0, 0], [0, 1], [1, 0], [1, 1])

# the commands whose exit 1 can only mean that the table is not Lie
NEEDS_LIE = (("unbraid",), ("uea", "nf"), ("hc", "bch"))


def _words(argv):
    """The command words of an argv from _commands."""
    return tuple(argv[:2]) if argv[0] in ("pbw", "uea", "hc") else (argv[0],)


def _coefficients(node):
    """Every zeta8 component list below node."""
    for container, key in _children(node):
        if key == "zeta8":
            yield container[key]


@st.composite
def loadable_edits(draw):
    """(file name, file text) after one to three edits that keep it
    loadable: a coefficient component set to a small rational string, a
    table row dropped, or a letter moved to another degree."""
    name = draw(st.sampled_from(sorted(FILES)))
    doc = json.loads(FILES[name])
    table = doc.get("brackets", doc.get("products"))
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(("coefficient", "row", "degree")))
        if edit == "coefficient":
            comps = list(_coefficients(doc))
            if comps:
                num, den = draw(st.integers(-3, 3)), draw(st.integers(1, 3))
                draw(st.sampled_from(comps))[draw(st.integers(0, 3))] = f"{num}/{den}"
        elif edit == "row":
            if table:
                del table[draw(st.integers(0, len(table) - 1))]
        else:
            letter = draw(st.sampled_from(doc["basis"]))
            letter["degree"] = draw(st.sampled_from(
                [d for d in DEGREES if d != letter["degree"]]))
    return name, json.dumps(doc)


def _moved(name, label, degree):
    """The file text of name with the letter label moved to degree."""
    doc = json.loads(FILES[name])
    next(b for b in doc["basis"] if b["label"] == label)["degree"] = degree
    return name, json.dumps(doc)


def _doubled(name):
    """The file text of name with its first bracket row's first term
    scaled from 1 to 2."""
    doc = json.loads(FILES[name])
    comps = doc["brackets"][0]["value"][0]["coeff"]["zeta8"]
    assert comps == ["1", "0", "0", "0"]
    comps[0] = "2"
    return name, json.dumps(doc)


# tables that load but are not Lie, with the check they fail: so3 with e2
# moved from (1,1) to (1,0), where [e1, e2] = e3 leaves its degree while
# e1 and e3, which hc bch takes, stay even; and unitary2x2 with one
# structure constant doubled
NOT_LIE = {"homogeneity": _moved("so3", "e2", [1, 0]),
           "jacobi": _doubled("unitary2x2")}


@settings(max_examples=60, deadline=None)
@given(loadable_edits())
@example(NOT_LIE["homogeneity"])
@example(NOT_LIE["jacobi"])
def test_a_loadable_edit_is_diagnosed_not_refused(workdir, edited):
    for argv, code, out, err in _run(workdir, *edited):
        assert not (argv[0] == "check" and code == 2), err
        if code == 1:
            assert err == "", argv
            if _words(argv) in NEEDS_LIE:
                assert out.startswith("not a Lie table:"), (argv, out)


@pytest.mark.parametrize("fails", sorted(NOT_LIE))
def test_the_commands_that_need_a_lie_bracket_exit_1_on_a_table_that_is_not(
        workdir, fails):
    runs = {_words(argv): (code, out, err)
            for argv, code, out, err in _run(workdir, *NOT_LIE[fails])}
    for words in NEEDS_LIE:
        code, out, err = runs[words]
        assert (code, err) == (1, ""), words
        assert out.startswith("not a Lie table: "), words
        assert f" fails: {fails} at " in out.splitlines()[0], words
