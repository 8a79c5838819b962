"""Exception types shared across the package."""


class TqError(Exception):
    """Base class for package errors."""


class InputError(TqError, ValueError):
    """Invalid user-supplied data (non-squarefree d, zero rational, ...)."""


class ContractViolationError(TqError):
    """Structured data does not satisfy a documented precondition (a character
    label not V4's, non-invertible cohomology iso, shape or dimension mismatch)."""
