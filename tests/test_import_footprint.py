"""Importing the CLI pulls in no introspection machinery.

``dataclasses`` imports ``inspect``, and with it ``ast``, ``dis`` and
``tokenize``: several milliseconds of every fresh ``bigla`` process, which
a command on a small table cannot win back.  The package's value classes
are plain classes and NamedTuples instead.
"""

import os
import pathlib
import subprocess
import sys

import bigla

SRC = pathlib.Path(bigla.__file__).parent.parent


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    probe = ("import sys, bigla.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
