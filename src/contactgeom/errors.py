"""Exception types shared across the package."""


class ContactGeomError(Exception):
    """Base class for all package-specific failures."""


class DegeneracyError(ContactGeomError):
    """A configuration outside the supported general-position model.

    Raised for overlapping segments, triple points, arc endpoints and
    polyline vertices on other curves, and similar unclassifiable contacts.
    """


class OnCurveError(ContactGeomError):
    """A query point lies exactly on a curve, so no cell contains it."""


class ValidationError(ContactGeomError):
    """A family violates its declared constraints."""


class PreconditionError(ContactGeomError):
    """Input fails a documented structural precondition of an algorithm."""


class ConstructionError(ContactGeomError):
    """A geometric construction could not be completed at any resolution."""


class GenerationError(ContactGeomError):
    """A generator failed to produce a valid family for the given spec."""


class DegenerateError(ContactGeomError):
    """An instance is too small or too sparse for the requested analysis."""


class InvariantError(ContactGeomError):
    """An invariant the package guarantees failed to hold: a bug, not bad
    input."""


def check(ok: bool, message: str) -> None:
    """Raise InvariantError unless an advertised invariant holds."""
    if not ok:
        raise InvariantError(message)


class FitError(ContactGeomError):
    """A regression has too few points or no spread to determine a slope."""


class ParseError(ContactGeomError):
    """Malformed family file input."""

    def __init__(self, message, line=None, offset=None):
        self.line = line
        self.offset = offset
        if line is not None:
            message = f"line {line}: {message}"
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
