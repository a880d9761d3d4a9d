"""The two exception types of the kernel, one per exit code.

Checks that *diagnose* (antisymmetry, Jacobi, homogeneity, associativity)
return reports instead of raising; these exceptions are reserved for
malformed or out-of-contract inputs, where no useful partial answer exists.
A command that meets BiglaError exits 2 with its message.  InputNotLie is
the one input fault a command answers on stdout, with exit code 1: the
command needs a Lie bracket and the table is not one.  No caller tells
other faults apart, so each is a BiglaError told by its message.
"""


class BiglaError(Exception):
    pass


class InputNotLie(BiglaError):
    # antisymmetry/Jacobi/homogeneity failed where a Lie algebra was required
    pass
