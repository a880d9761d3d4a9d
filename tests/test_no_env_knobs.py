"""The package reads nothing from the environment.

Size bounds such as ``uea.MAX_TRUNCATION`` are constants, so a run depends
only on its arguments and input files.  This test keeps a bound from coming
back as an environment variable.
"""

import pathlib
import re

import bigla

PACKAGE = pathlib.Path(bigla.__file__).parent


def test_no_module_reads_the_environment():
    readers = re.compile(r"\bos\.environ\b|\bgetenv\b")
    hits = [f"{path.name}:{n}" for path in sorted(PACKAGE.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if readers.search(line)]
    assert hits == []
