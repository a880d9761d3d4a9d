"""Every function and method in ``bigla`` has a caller.

A definition that nothing calls is an interface for callers nobody wrote;
it costs reading and testing and answers no question the library asks.
A non-dunder ``def`` under ``src/bigla`` passes when its name

* appears as a name or attribute elsewhere in ``src/bigla``;
* is imported by ``bigla/__init__.py``, the library's public surface;
* is used by code in a ``benchmarks/`` module; or
* is patched by the benchmark's layer trace (``SPANS``/``AGGREGATES`` in
  ``benchmarks/layertrace.py``).

Names are matched without their owner, so a method survives when any
same-named attribute is read; the guard stops whole definitions from
going dead, not every overload.  Dunders are exempt: the interpreter
calls them.  A helper the tests need but the library does not belongs in
the tests, as an oracle.
"""

import ast
import pathlib

import bigla

from test_trace_names import _layertrace

PACKAGE = pathlib.Path(bigla.__file__).parent
BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(qualified name, def node) for every function, method and nested def."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{prefix}{child.name}", child
                yield from walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)
    yield from walk(tree, "")


def _used_names(tree):
    """Every identifier read as a bare name or as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_every_definition_has_a_caller():
    trees = {path.name: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*(_used_names(tree) for tree in trees.values()))
    exported = {alias.asname or alias.name
                for node in ast.walk(trees["__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    benchmarked = set().union(*(_used_names(_parse(path))
                                for path in sorted(BENCHMARKS.glob("*.py"))))
    trace = _layertrace()
    traced = {qualname.rsplit(".", 1)[-1]
              for _, qualname, _ in trace.SPANS + trace.AGGREGATES}
    alive = used | exported | benchmarked | traced
    dead = [f"{module[:-3]}.{qualname}"
            for module, tree in trees.items()
            for qualname, node in _definitions(tree)
            if not _is_dunder(node.name) and node.name not in alive]
    assert dead == [], "no caller: " + ", ".join(dead)
