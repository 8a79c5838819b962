"""Exception types shared across the package."""


class TqError(Exception):
    """Base class for package errors."""


class InputError(TqError, ValueError):
    """Invalid user-supplied data (non-squarefree d, zero rational, ...)."""


class UnsupportedGroupError(TqError):
    """A character label that is not one of V4's."""


class ContractViolationError(TqError):
    """Structured data does not satisfy a documented precondition
    (non-invertible cohomology iso, shape mismatch, dimension mismatch)."""
