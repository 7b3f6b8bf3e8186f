"""Exception taxonomy shared by the library and the CLI.

Each class carries its CLI form, the ``kind`` written before its message
and the process ``exit_code``: configuration and parameter problems exit 2,
numerical failures 3, data (ingestion) failures 4; subclasses inherit both.
"""


class PpbootError(Exception):
    """Base class for all errors raised by this package."""

    kind, exit_code = "error", 2


class ParameterError(PpbootError, ValueError):
    """An argument violates an operation's preconditions."""

    kind = "parameter error"


class InvalidBoundError(ParameterError):
    """A declared intensity bound is violated at evaluation time."""


class UnattainableLevelError(ParameterError):
    """No finite threshold reaches the requested confidence level."""


class DegenerateCountError(ParameterError):
    """An observed or expected count of zero makes the quantity undefined."""


class DataError(PpbootError, ValueError):
    """Ingested data fails validation (duplicates, out-of-window points, parse errors)."""

    kind, exit_code = "data error", 4


class DuplicatePointError(DataError):
    """A point pattern contains coincident points."""


class OutOfWindowError(DataError):
    """A point lies outside its declared observation window."""


class ConfigError(PpbootError, ValueError):
    """An experiment configuration fails schema validation."""

    kind = "config error"


class NumericalError(PpbootError, ArithmeticError):
    """A numerical routine produced a non-finite or invalid intermediate."""

    kind, exit_code = "numerical error", 3
