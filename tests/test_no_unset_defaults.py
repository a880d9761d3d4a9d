"""Every defaulted parameter in ``bigla`` is set by some call.

A parameter that every caller leaves at its default takes one value; that
value belongs in the code as a constant, and the parameter is an interface
for callers nobody wrote.  A parameter with a default of a ``def`` under
``src/bigla`` passes when some call under ``src/bigla`` or ``benchmarks/``
sets it, by position or by keyword.

Names are matched without their owner, as in ``test_no_dead_code.py``: a
call ``x.f(...)`` or ``f(...)`` counts for every ``def f``.  An ``__init__``
is matched by its class name; other dunders are exempt, since the
interpreter calls them.  A call with ``*args`` or ``**kw`` counts as setting
every parameter.  Tests do not count: a parameter only a test sets is a
test's knob, not the library's.
"""

import ast

from test_no_dead_code import BENCHMARKS, PACKAGE, _is_dunder, _parse


def _parameters(tree):
    """(qualified name, call name, parameter, position, default) for every
    parameter but a method's self; position counts the arguments a call
    passes and is None for a keyword-only parameter, and default is the
    default's node or None."""
    def walk(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                if name == "__init__" and cls:
                    name = cls
                elif _is_dunder(name):
                    continue
                args = child.args
                positional = args.posonlyargs + args.args
                decorators = {d.id for d in child.decorator_list
                              if isinstance(d, ast.Name)}
                skip = 1 if cls and "staticmethod" not in decorators else 0
                defaults = [None] * (len(positional) - len(args.defaults))
                for p, (arg, default) in enumerate(
                        zip(positional, defaults + args.defaults)):
                    if p >= skip:
                        yield (f"{prefix}{child.name}", name, arg.arg, p - skip,
                               default)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    yield f"{prefix}{child.name}", name, arg.arg, None, default
                yield from walk(child, f"{prefix}{child.name}.", None)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.", child.name)
            else:
                yield from walk(child, prefix, cls)
    yield from walk(tree, "", None)


def _calls(tree):
    """(call name, positional arguments, keyword arguments by name, any
    star) per call."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            continue
        star = (any(isinstance(a, ast.Starred) for a in node.args)
                or any(k.arg is None for k in node.keywords))
        yield name, node.args, {k.arg: k.value for k in node.keywords}, star


def test_every_default_is_overridden_somewhere():
    sources = sorted(PACKAGE.glob("*.py")) + sorted(BENCHMARKS.glob("*.py"))
    calls = [call for path in sources for call in _calls(_parse(path))]
    unset = [f"{path.stem}.{qualname}({param})"
             for path in sorted(PACKAGE.glob("*.py"))
             for qualname, name, param, pos, default in _parameters(_parse(path))
             if default is not None
             and not any(called == name and (star or param in keywords
                                             or pos is not None and len(args) > pos)
                         for called, args, keywords, star in calls)]
    assert unset == [], "never set: " + ", ".join(unset)
