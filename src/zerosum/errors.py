"""Exception types shared across the package."""


class ZeroSumError(Exception):
    """Base class for all package-specific errors."""


class BadFactor(ZeroSumError):
    """An invariant factor is smaller than 2."""


class ChainViolation(ZeroSumError):
    """The divisibility chain n_1 | n_2 | ... | n_r fails."""


class DimensionMismatch(ZeroSumError):
    """An element's residue vector does not match the group rank."""


class ZeroElement(ZeroSumError):
    """The zero element was supplied where a nonzero element is required."""


class BadParams(ZeroSumError):
    """Parameters violate a documented precondition."""


class CapExceeded(ZeroSumError):
    """The computation would exceed a configured search cap."""


class GroupMismatch(ZeroSumError):
    """An argument belongs to a different group than expected."""


class ParseError(ZeroSumError):
    """Malformed group, element, or sequence text."""


class NotZeroSum(ZeroSumError):
    """The sequence does not sum to zero."""


class BadWitness(ZeroSumError):
    """A structural witness violates one of its invariants."""


class MissingCosetCondition(BadWitness):
    """A two-generator witness with s != 1 lacks the m*g1 = m*g2 condition."""


class NotMlMzss(ZeroSumError):
    """The sequence is not a minimal zero-sum sequence of maximal length."""


class WorkerFailed(ZeroSumError):
    """A worker process of the search pool died before its task was done."""
