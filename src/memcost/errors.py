"""Exception hierarchy shared across the package."""


class MemcostError(Exception):
    """Base class for all package errors."""


class DomainError(MemcostError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class RegimeError(DomainError):
    """Inputs outside the overparameterized regime (e.g. gamma <= 1, d <= n)."""


class BracketError(DomainError):
    """A root bracket does not enclose a sign change.

    Attributes:
        lo, hi: the rejected bracket endpoints.
        flo, fhi: function values at those endpoints.
    """

    def __init__(self, msg, lo=None, hi=None, flo=None, fhi=None):
        super().__init__(msg)
        self.lo, self.hi, self.flo, self.fhi = lo, hi, flo, fhi


class ConvergenceError(MemcostError):
    """An iterative solver ran out of iterations.

    Attributes:
        last: last iterate or bracket reached before giving up.
    """

    def __init__(self, msg, last=None):
        super().__init__(msg)
        self.last = last


class NearDivergenceError(MemcostError):
    """A multiplier solve's target lies past the float range of its level.

    The constraint level diverges as rho -> 1/top (top: the limit law's upper
    edge, or a sampled design's top eigenvalue); its value at the smallest
    normal edge distance 1 - rho top is the largest reachable target.
    """


class FeasibilityError(MemcostError):
    """The requested multiplier leaves the positive-definite feasibility set.

    Attributes:
        min_eigenvalue: offending minimum eigenvalue of the constraint matrix.
    """

    def __init__(self, msg, min_eigenvalue=None):
        super().__init__(msg)
        self.min_eigenvalue = min_eigenvalue


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
