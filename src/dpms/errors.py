"""Exception types shared across the package, and the type checks that
raise them for configuration values.

The CLI maps these onto its exit-code contract: DataError -> 1,
ConfigError -> 2 (argparse's own usage failures also exit 2), and every
other DpmsError (SolverError included) -> 1.
"""

import numbers
import operator
from collections.abc import Iterable


class DpmsError(Exception):
    """Base class for all errors raised by this package."""


class DataError(DpmsError):
    """Data violates a contract: bounds, shapes, parse failures."""


class ConfigError(DpmsError):
    """A configuration value is invalid or inconsistent."""


class SolverError(DpmsError):
    """The constrained least-squares solver could not certify a fit within
    its step budget, or broke its own invariant (an objective increase
    under the 1/L step), so its losses are not to be trusted."""


def _integer(name: str, value) -> int:
    """``value`` as an int; a bool, a float or a non-number raise ConfigError."""
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def _real(name: str, value) -> float:
    """``value`` as a float; a bool, a string or a non-number raise ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _values(name: str, values) -> tuple:
    """``values`` as a tuple; a scalar or a string raise ConfigError."""
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise ConfigError(f"{name} must be a sequence, got {values!r}")
    return tuple(values)
