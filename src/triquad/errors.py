"""Exception types shared across the package."""


class TriquadError(Exception):
    """Base class for all package-specific errors."""


class InternalInconsistencyError(TriquadError):
    """A verified mathematical identity failed; indicates a bug or bad input."""


class ResourceGuardError(TriquadError):
    """An input exceeds a configured resource bound."""
