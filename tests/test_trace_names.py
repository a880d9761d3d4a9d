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
