"""Every exception class in ``bigla.errors`` is raised somewhere.

An error type that no code raises is an interface for inputs nobody
passes; deleting the check that raised it should delete the class too.
The ``BiglaError`` base is exempt: callers catch it, nobody raises it.
"""

import inspect
import pathlib
import re

import bigla
from bigla import errors

PACKAGE = pathlib.Path(bigla.__file__).parent


def test_every_error_class_is_raised():
    source = "\n".join(path.read_text() for path in sorted(PACKAGE.glob("*.py")))
    names = [name for name, cls in inspect.getmembers(errors, inspect.isclass)
             if issubclass(cls, errors.BiglaError) and cls is not errors.BiglaError]
    assert names
    dead = [name for name in names
            if not re.search(rf"\braise\s+(?:errors\.)?{name}\b", source)]
    assert dead == []
