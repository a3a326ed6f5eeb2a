"""Exception types used across the package."""


class EinflagError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedRank(EinflagError):
    """Requested rank is outside the supported range for the family."""


class BadPartition(EinflagError):
    """Partition does not sum to the required total or has nonpositive parts."""


class BadFlag(EinflagError):
    """Flag options are inconsistent (e.g. last-root flag on an A-family flag)."""


class UnimplementedCase(EinflagError):
    """Flag shape whose isotropy decomposition is not covered by the rule tables."""


class ClosureViolation(EinflagError):
    """A bracket of basis elements failed to expand in the basis."""


class NotPositiveDefinite(EinflagError):
    """Metric coefficients define an operator that is not positive definite."""

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class TooManyParameters(EinflagError):
    """Metric space dimension exceeds what the numeric solver handles."""


class NoExactCount(EinflagError):
    """An Einstein system cannot be rebuilt or counted exactly.

    Raised by the exact counts of :mod:`einflag.algebraic`, with the reason,
    for the diagonal or the mixed stage of a flag.  No search stands in for
    the count, so the solve fails as an unsupported case.
    """


class NoCatalogEntry(EinflagError):
    """No closed-form solution catalog entry exists for this flag."""


class InvariantViolation(EinflagError):
    """An internal consistency check failed."""
