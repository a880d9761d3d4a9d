"""The CLI offers no option that can take only one value.

An option whose ``choices`` hold a single value selects nothing; that value
belongs in the code as a constant.  This test walks the whole argument
parser, subcommands included, so such an option cannot come back.
"""

import argparse

from bigla.cli import build_parser


def _parsers(parser):
    """The parser and every parser below it."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_no_option_has_a_single_choice():
    walked = list(_parsers(build_parser()))
    assert len(walked) == 22  # top level, 9 commands, 12 grouped subcommands
    single = [f"{p.prog} {'/'.join(a.option_strings) or a.dest}"
              for p in walked for a in p._actions
              if not isinstance(a, argparse._SubParsersAction)
              and a.choices is not None and len(a.choices) == 1]
    assert single == []
