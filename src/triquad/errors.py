"""Exception types shared across the package."""


class TriquadError(Exception):
    """Base class for all package-specific errors."""


class InternalInconsistencyError(TriquadError):
    """A verified mathematical identity failed; indicates a bug or bad input."""


class ResourceGuardError(TriquadError):
    """An input exceeds a configured resource bound."""


class RootMissingError(TriquadError):
    """A formal unit word requires a square root that does not exist in K."""

    def __init__(self, subword: str):
        super().__init__(f"no square root in K for sub-word {subword}")
        self.subword = subword
