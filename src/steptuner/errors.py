"""Exception hierarchy shared across the package, and its integer rule.

Each class maps to a distinct CLI exit code so scripted callers can tell
configuration mistakes apart from numerical failures.
"""

from numbers import Integral


class StepTunerError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class DomainError(StepTunerError):
    """An argument lies outside the mathematical domain of an operation."""

    exit_code = 3


class ContractError(StepTunerError):
    """Inputs are individually valid but mutually inconsistent."""

    exit_code = 3


class ConfigError(StepTunerError):
    """A config file is malformed; message names the offending field path."""

    exit_code = 2


class NumericError(StepTunerError):
    """A computation produced a non-finite value."""

    exit_code = 4


def check_integer(name: str, value, low: int) -> None:
    """Raise DomainError naming the field unless value is an integer >= low.

    Python and numpy integers pass; floats, even integral ones such as 5.0,
    and bools do not, as the config parser rejects them too.
    """
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise DomainError(f"{name}: must be an integer >= {low}, got {value!r}")
