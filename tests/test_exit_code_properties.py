"""A malformed file never escapes ``main`` as a traceback.

Each example takes an exported catalog file, or the super companion of a
Lie one, and makes one to three random edits to its JSON: a junk value
in place of a number, string or list, a deleted key or list entry, or a
repeated basis letter, table row or term.  The cheap commands then run
on it in process.  None may raise; each exits 0, 1 or 2, and an exit 2
writes exactly one line to stderr, starting ``error:``.  The commands
address letters by the labels of the unedited file.
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
given, settings = hypothesis.given, hypothesis.settings


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


@settings(max_examples=60, deadline=None)
@given(edited_files())
def test_an_edited_file_exits_0_1_or_2_with_one_error_line(workdir, edited):
    name, text = edited
    path = workdir / "edited.json"
    path.write_text(text)
    for argv in _commands(str(path), json.loads(FILES[name])["basis"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), (argv, lines)
