"""Exception hierarchy shared across the package."""


class MemcostError(Exception):
    """Base class for all package errors."""


class DomainError(MemcostError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class RegimeError(DomainError):
    """Inputs outside the overparameterized regime (e.g. gamma <= 1, d <= n)."""


class BracketError(DomainError):
    """A root bracket does not enclose a sign change; the message names its ends and levels."""


class ConvergenceError(MemcostError):
    """An iterative solver ran out of iterations."""


class NearDivergenceError(MemcostError):
    """A multiplier solve's target lies past the float range of its level.

    The constraint level diverges as rho -> 1/top (top: the limit law's upper
    edge, or a sampled design's top eigenvalue); its value at the smallest
    normal edge distance 1 - rho top is the largest reachable target.
    """


class FeasibilityError(MemcostError):
    """The requested multiplier leaves the positive-definite feasibility set."""


class RankError(DomainError):
    """A design matrix is (numerically) rank deficient where full row rank is required.

    A refusal of the input, not a failed check: a sampled design can be singular.
    """


class ConsistencyError(MemcostError):
    """Two algebraically identical evaluation routes disagree beyond tolerance."""


class SpectrumFormatError(MemcostError, ValueError):
    """A population spectrum file failed to parse.

    Attributes:
        line: 1-based line number of the offending entry, when known.
    """

    def __init__(self, msg, line=None):
        super().__init__(msg)
        self.line = line
