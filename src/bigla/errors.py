"""Exception types shared across the kernel.

Checks that *diagnose* (antisymmetry, Jacobi, homogeneity, associativity)
return reports instead of raising; these exceptions are reserved for
malformed or out-of-contract inputs, where no useful partial answer exists.
"""


class BiglaError(Exception):
    pass


class SpaceMismatch(BiglaError):
    # operands live over different BiGradedSpace instances
    pass


class DegreeViolation(BiglaError):
    # a map or table does not respect the bi-degrees
    pass


class NotAssociative(BiglaError):
    pass


class NotClosed(BiglaError):
    # restricting to a subset of the basis does not close under the bracket
    pass


class InputNotLie(BiglaError):
    # antisymmetry/Jacobi/homogeneity failed where a Lie algebra was required
    pass


class AlgebraMismatch(BiglaError):
    # elements or maps attached to different algebras
    pass


class TruncationExceeded(BiglaError):
    # requested filtration order above the configured maximum
    pass


class TruncationMismatch(BiglaError):
    # functionals truncated at different orders
    pass


class TruncationTooSmall(BiglaError):
    # N < number of self-pairing-1 letters: reported dimension would be an artifact
    pass


class OddInput(BiglaError):
    # exp/log arguments must have even parity
    pass


class NotOrthogonal(BiglaError):
    # a group element g with g g^T != 1, whose inverse is then not g^T
    pass


class BasisNotAdapted(BiglaError):
    # basis vectors must be +-1 eigenvectors of the star map
    pass


class TrialsExceeded(BiglaError):
    # a random sweep's trials times their size above MAX_TRIAL_WORK
    pass


class DegreeOverflow(BiglaError):
    # polynomial degree above the configured bound
    pass


class NegativePoint(BiglaError):
    # characters of the deformed product are defined at points a >= 0
    pass
