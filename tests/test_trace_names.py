"""The benchmark's layer trace patches bigla functions by name.

``benchmarks/layertrace.py`` lists them in ``SPANS`` and ``AGGREGATES`` as
(module, qualified name) pairs and looks each one up in its owner's own
``__dict__``.  A rename or a move into a base class would break the traced
run; this test catches that without running the benchmark.
"""

import importlib
import importlib.util
import os

LAYERTRACE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "benchmarks", "layertrace.py")


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_defined_on_its_owner():
    trace = _layertrace()
    missing = []
    for layer, qualname, _ in trace.SPANS + trace.AGGREGATES:
        owner, attr = trace._resolve(importlib.import_module(f"bigla.{layer}"), qualname)
        if not callable(owner.__dict__.get(attr)):
            missing.append(f"bigla.{layer}.{qualname}")
    assert missing == []


def test_scalar_coordinates_are_ints_and_arithmetic_builds_no_fraction(monkeypatch):
    """The trace reads a.c[1] or a.c[2] or a.c[3] on every traced multiply to
    count scalars.mul_full.calls.  That read, and the self times around it,
    stay cheap only while c holds four ints over an int denominator d and
    the arithmetic builds no Fraction; nor does printing, d = 1 or not."""
    from fractions import Fraction

    from bigla.scalars import CycloScalar

    values = [CycloScalar(Fraction(1, 2), 3, Fraction(-2, 3), 1),
              CycloScalar(2, Fraction(1, 3), 0, -1), CycloScalar(Fraction(5, 4)),
              CycloScalar(0, 0, 7), CycloScalar(-1), CycloScalar()]
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *args, **kw: built.append(args) or new(cls, *args, **kw))
    out = []
    for a in values:
        out.append(-a)
        for b in values:
            out += [a + b, a - b, a * b, a + 1, a - 1, a * 2, 3 * a]
    printed = [str(s) for s in values + out]
    assert built == []
    assert printed[:6] == ["1/2 + 3*z8 - 2/3*i + z8^3", "2 + 1/3*z8 - z8^3", "5/4",
                           "7*i", "-1", "0"]
    for s in values + out:
        assert type(s.c) is tuple and len(s.c) == 4
        assert all(type(cj) is int for cj in s.c)
        assert type(s.d) is int and s.d > 0
