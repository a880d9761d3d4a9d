"""No function in ``bigla`` calls itself.

Every size a command admits is bounded before work starts, and no input
may reach the interpreter's recursion limit.  A function that calls itself
ties its depth to its input; a loop over levels, or over a work list, does
not.  A ``def`` under ``src/bigla`` fails here when its body calls

* its own name, bare, unless it is a method (a bare name in a method body
  is a module-level function); or
* ``self.<its own name>``, from a method.

A call of a same-named function on another object, such as ``json.dumps``
from a ``dumps`` or ``g.bracket.check_homogeneity`` from a
``check_homogeneity``, is no self-call.  The rewriting memo's recursion
(``EnvelopingAlgebra.normal_form`` and the ``nf`` of ``normal_form_random``)
is not caught: it passes itself to ``_rewrite_at`` as a callback, and its
depth is bounded by ``MAX_WORD``, the longest word ``normal_form`` accepts.
"""

import ast
import pathlib

import bigla

PACKAGE = pathlib.Path(bigla.__file__).parent


def _definitions(tree):
    """(qualified name, def node, whether it is a method) for every def."""
    def walk(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{prefix}{child.name}", child, in_class
                yield from walk(child, f"{prefix}{child.name}.", False)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.", True)
            else:
                yield from walk(child, prefix, in_class)
    yield from walk(tree, "", False)


def _calls_itself(node, is_method):
    for call in ast.walk(node):
        if not isinstance(call, ast.Call):
            continue
        f = call.func
        if isinstance(f, ast.Name) and f.id == node.name and not is_method:
            return True
        if (is_method and isinstance(f, ast.Attribute) and f.attr == node.name
                and isinstance(f.value, ast.Name) and f.value.id == "self"):
            return True
    return False


def test_no_function_calls_itself():
    found = [f"{path.stem}.{qualname}"
             for path in sorted(PACKAGE.glob("*.py"))
             for qualname, node, is_method in _definitions(
                 ast.parse(path.read_text(), filename=str(path)))
             if _calls_itself(node, is_method)]
    assert found == [], "calls itself: " + ", ".join(found)
