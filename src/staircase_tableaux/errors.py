"""Exception types shared across the package."""


class StaircaseError(Exception):
    """Base class for all library errors."""


class ParameterError(StaircaseError, ValueError):
    """A weight or parameter is outside its admissible range."""


class DomainError(StaircaseError, ValueError):
    """An index or argument is outside the operation's domain."""


class CapExceededError(StaircaseError, ValueError):
    """An enumeration request exceeds the combinatorial-explosion guard."""


class MalformedDocumentError(StaircaseError, ValueError):
    """A serialized document cannot be parsed at all."""


class InvalidTableauError(StaircaseError, ValueError):
    """A structurally parseable document describes an invalid tableau."""


class RootFindingError(StaircaseError, RuntimeError):
    """Root isolation could not certify the expected root structure."""
