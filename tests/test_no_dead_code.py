"""Every function, method and class in ``bigla`` has a caller.

A definition that nothing calls is an interface for callers nobody wrote;
it costs reading and testing and answers no question the library asks.
A non-dunder ``def`` or ``class`` under ``src/bigla`` passes when its name

* appears as a name or attribute elsewhere in ``src/bigla``, outside the
  definition's own body;
* is used by code in a ``benchmarks/`` module; or
* is patched by the benchmark's layer trace (``SPANS``/``AGGREGATES`` in
  ``benchmarks/layertrace.py``), or owns a method that is.

A use inside the definition itself, such as a class that builds its own
instances, is no caller.  A module-level definition is used in
``src/bigla`` only as a bare name or as ``<module>.<name>`` with
``<module>`` a ``bigla`` module, so an attribute of the same name on
some object, such as ``self._index``, keeps no module-level ``_index``
alive.  A method's name is matched without its owner, so a method
survives when any same-named attribute is read; the guard stops whole
definitions from going dead, not every overload.
Dunders are exempt: the interpreter calls them.  A helper the tests need
but the library does not belongs in the tests, as an oracle.
"""

import ast
import pathlib
from collections import Counter

import bigla

from test_trace_names import _layertrace

PACKAGE = pathlib.Path(bigla.__file__).parent
BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(qualified name, node) for every function, method, class and nested
    definition."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{prefix}{child.name}", child
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)
    yield from walk(tree, "")


def _used_names(tree, modules=None):
    """How often each identifier is read as a bare name or as an attribute;
    given the package's module names, only as a bare name or as an
    attribute of one of those modules."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute) and (
                modules is None
                or isinstance(node.value, ast.Name) and node.value.id in modules):
            out[node.attr] += 1
    return out


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_every_definition_has_a_caller():
    trees = {path.name: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    modules = {name[:-3] for name in trees}
    used = sum((_used_names(tree) for tree in trees.values()), Counter())
    used_bare = sum((_used_names(tree, modules) for tree in trees.values()),
                    Counter())
    benchmarked = set().union(*(_used_names(_parse(path))
                                for path in sorted(BENCHMARKS.glob("*.py"))))
    trace = _layertrace()
    traced = {part for _, qualname, _ in trace.SPANS + trace.AGGREGATES
              for part in qualname.split(".")}
    dead = [f"{module[:-3]}.{qualname}"
            for module, tree in trees.items()
            for qualname, node in _definitions(tree)
            if not _is_dunder(node.name)
            and (used_bare[node.name] == _used_names(node, modules)[node.name]
                 if "." not in qualname
                 else used[node.name] == _used_names(node)[node.name])
            and node.name not in benchmarked | traced]
    assert dead == [], "no caller: " + ", ".join(dead)
