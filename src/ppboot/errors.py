"""Exception taxonomy shared by the library and the CLI.

The CLI maps these onto process exit codes: configuration and parameter
problems exit 2, numerical failures exit 3, data (ingestion) failures
exit 4.
"""


class PpbootError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(PpbootError, ValueError):
    """An argument violates an operation's preconditions."""


class InvalidBoundError(ParameterError):
    """A declared intensity bound is violated at evaluation time."""


class UnattainableLevelError(ParameterError):
    """No finite threshold reaches the requested confidence level."""


class DegenerateCountError(ParameterError):
    """An observed or expected count of zero makes the quantity undefined."""


class DataError(PpbootError, ValueError):
    """Ingested data fails validation (duplicates, out-of-window points, parse errors)."""


class DuplicatePointError(DataError):
    """A point pattern contains coincident points."""


class OutOfWindowError(DataError):
    """A point lies outside its declared observation window."""


class ConfigError(PpbootError, ValueError):
    """An experiment configuration fails schema validation."""


class NumericalError(PpbootError, ArithmeticError):
    """A numerical routine produced a non-finite or invalid intermediate."""
