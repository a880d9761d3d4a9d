"""Every name a module imports is read in that module.

An import nothing reads costs load time and tells the reader about a
dependency that is not there.  The guard covers ``src/bigla/*.py``,
``bigla/__init__.py`` included, so no re-export facade grows back, and
``tests/*.py``.  An import on a line marked ``# noqa: F401`` is exempt, kept
for its side effect (``tests/conftest.py`` imports a hypothesis module that
way).

A name counts as read when it appears as a bare name anywhere in the
module, annotations included; ``import a.b`` binds and is read as ``a``.
"""

import ast
import pathlib

import bigla

PACKAGE = pathlib.Path(bigla.__file__).parent
TESTS = pathlib.Path(__file__).resolve().parent


def _unused_imports(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name != "*" and bound not in read:
                unused.append(f"{path.name}: {bound}")
    return unused


def test_every_import_is_read():
    paths = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    unused = [name for path in paths for name in _unused_imports(path)]
    assert unused == [], "imported but never read: " + ", ".join(unused)
