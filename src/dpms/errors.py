"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: DataError -> 1,
ConfigError -> 2 (argparse's own usage failures also exit 2), and every
other DpmsError (SolverError included) -> 1.
"""


class DpmsError(Exception):
    """Base class for all errors raised by this package."""


class DataError(DpmsError):
    """Data violates a contract: bounds, shapes, parse failures."""


class ConfigError(DpmsError):
    """A configuration value is invalid or inconsistent."""


class SolverError(DpmsError):
    """The constrained least-squares solver broke its own invariant (an
    objective increase under the 1/L step), so its losses are not to be
    trusted."""
