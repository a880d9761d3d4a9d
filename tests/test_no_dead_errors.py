"""Every exception class in ``bigla.errors`` is raised and told apart.

An error type that no code raises is an interface for inputs nobody
passes; deleting the check that raised it should delete the class too.
A subclass that no ``except`` clause under ``src/bigla`` names is told
apart by nobody: a command reports it exactly as ``BiglaError``, so the
check raises ``BiglaError`` with its message instead.  The ``BiglaError``
base is exempt from both: callers catch it, and it is the type of every
fault they do not tell apart.
"""

import inspect
import pathlib
import re

import bigla
from bigla import errors

PACKAGE = pathlib.Path(bigla.__file__).parent


def _source() -> str:
    return "\n".join(path.read_text() for path in sorted(PACKAGE.glob("*.py")))


def _subclasses() -> list[str]:
    names = [name for name, cls in inspect.getmembers(errors, inspect.isclass)
             if issubclass(cls, errors.BiglaError) and cls is not errors.BiglaError]
    assert names
    return names


def test_every_error_class_is_raised():
    source = _source()
    dead = [name for name in _subclasses()
            if not re.search(rf"\braise\s+(?:errors\.)?{name}\b", source)]
    assert dead == []


def test_every_error_subclass_is_caught_by_name():
    source = _source()
    untold = [name for name in _subclasses()
              if not re.search(rf"\bexcept\s+[^:]*\b{name}\b[^:]*:", source)]
    assert untold == []
