"""The CLI offers no option that can take only one value.

An option whose ``choices`` hold a single value selects nothing; that value
belongs in the code as a constant.  This test walks the whole argument
parser, subcommands included, so such an option cannot come back.
"""

import argparse

from bigla.cli import build_parser


def _parsers(parser):
    parser.complete()
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_no_option_has_a_single_choice():
    single = [f"{p.prog} {'/'.join(a.option_strings) or a.dest}"
              for p in _parsers(build_parser()) for a in p._actions
              if not isinstance(a, argparse._SubParsersAction)
              and a.choices is not None and len(a.choices) == 1]
    assert single == []
