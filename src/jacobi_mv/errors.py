"""Exception taxonomy shared by all modules.

Every library error derives from Error so callers (and the CLI) can catch
the whole family at once.  The CLI maps any Error to exit status 2; a failed
verification is a report, not an exception, and maps to exit status 1.
Error texts quote rejected input through shown, which cuts a long repr.
"""

SHOWN_LIMIT = 80


def shown(value) -> str:
    """repr(value) for an error text, cut after SHOWN_LIMIT characters."""
    text = repr(value)
    if len(text) <= SHOWN_LIMIT:
        return text
    return f"{text[:SHOWN_LIMIT]}... ({len(text)} characters)"


class Error(Exception):
    """Base class for all errors raised by this package."""


class InvalidDimensionError(Error):
    """Dimension d is not a positive integer."""


class InvalidIndexError(Error):
    """A coordinate index lies outside {1..d}."""


class DimensionMismatchError(Error):
    """Operands of a polynomial or matrix operation disagree on dimension."""


class UnsupportedParameterError(Error):
    """A family parameter is irrational or outside its admissible range."""


class InsufficientMomentsError(Error):
    """A moment of degree beyond the available table was requested."""


class NoMassFactorError(Error):
    """The functional has no classical weight, hence no total-mass factor."""


class NotAStateError(Error):
    """The supplied moments cannot come from a positive normalized functional."""


class InternalConsistencyError(Error):
    """An identity that is a theorem for valid inputs failed to hold."""


class RepresentationError(Error):
    """An operator image left the span of the creation chains (mod null space)."""


class InsufficientDepthError(Error):
    """An operator chain needs more levels than were computed."""


class SingularParameterError(Error):
    """A closed-form denominator vanished for the given parameters."""


class InputError(Error):
    """Malformed command-line input, configuration or data file."""
