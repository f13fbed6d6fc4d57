"""Exception types shared across the package."""


class StrongOddError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(StrongOddError, ValueError):
    """A constructor or operation argument is out of its admissible range."""


class UnsupportedFamilyError(InvalidParameterError):
    """The requested operation does not support this graph family."""


class InvalidColoringError(StrongOddError, ValueError):
    """A coloring is not total on its graph or violates a required precondition."""


class InvalidRotationError(StrongOddError, ValueError):
    """A rotation system does not match the adjacency of its graph."""


class ParseError(StrongOddError, ValueError):
    """A graph, coloring, or certificate file is malformed.

    Carries the 1-based line number when one is available.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CertificationError(StrongOddError):
    """A certificate check failed; nothing was emitted."""


class InternalError(StrongOddError):
    """A self-check of the package's own output failed: a bug, not bad input."""
