"""No positional parameter in ``bigla`` is reached by one literal only.

A parameter that every call passes the same literal takes one value; that
value belongs in the code as a constant, and the parameter is an interface
for callers nobody wrote.  A positional parameter of a ``def`` under
``src/bigla`` fails when every call under ``src/bigla`` or ``benchmarks/``
that reaches it gives it the same literal, by position, by keyword or by
leaving a literal default.  A literal is a constant: a number, possibly
negated, a string, True, False or None; a list or tuple display is data
the call builds, not a setting.

Calls are matched by name, as in ``test_no_unset_defaults.py``; a call that
passes fewer arguments than the parameter needs, and names no keyword for
it, belongs to some other ``def`` of that name.  A call with ``*args`` or
``**kw`` counts as passing any value.  Tests do not count: a value only a
test passes is a test's knob, not the library's.
"""

import ast

from test_no_dead_code import BENCHMARKS, PACKAGE, _parse
from test_no_unset_defaults import _calls, _parameters


def _literal(node):
    """A constant argument as (type name, repr), so that 1, 1.0 and True
    differ; None for any other expression."""
    negated = isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
    if negated:
        node = node.operand
    if not isinstance(node, ast.Constant):
        return None
    return type(node.value).__name__, "-" * negated + repr(node.value)


def _values(name, param, pos, default, calls):
    """The literals the calls named name give the parameter, with None for
    any value that is not a literal."""
    values = set()
    for called, args, keywords, star in calls:
        if called != name:
            continue
        if star:
            values.add(None)
        elif len(args) > pos:
            values.add(_literal(args[pos]))
        elif param in keywords:
            values.add(_literal(keywords[param]))
        elif default is not None:
            values.add(_literal(default))
    return values


def test_no_positional_parameter_takes_one_literal():
    sources = sorted(PACKAGE.glob("*.py")) + sorted(BENCHMARKS.glob("*.py"))
    calls = [call for path in sources for call in _calls(_parse(path))]
    single = [f"{path.stem}.{qualname}({param})"
              for path in sorted(PACKAGE.glob("*.py"))
              for qualname, name, param, pos, default in _parameters(_parse(path))
              if pos is not None
              and len(values := _values(name, param, pos, default, calls)) == 1
              and None not in values]
    assert single == [], "one literal only: " + ", ".join(single)
