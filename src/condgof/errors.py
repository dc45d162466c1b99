"""Exception types shared across the package.

Every error raised by the library derives from CondgofError so callers can
catch the package's failures with a single except clause. The CLI maps
UsageError to exit code 2, DataError to 3, and everything else to 4.
"""

import numbers

import numpy as np


class CondgofError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(CondgofError, ValueError):
    """An argument violates a documented precondition (shape, range, enum)."""


class UncoveredPointError(InvalidArgumentError):
    """A point lies in no cell of a partition."""


class OutOfSupportError(InvalidArgumentError):
    """A response lies outside the support of the model family."""


class InvalidParameterError(CondgofError):
    """A model parameter vector violates the family's constraints."""


class ModelEvaluationError(CondgofError):
    """A model produced a non-finite value where a finite one is required."""


class InsufficientDataError(CondgofError):
    """Too few (distinct) observations for the requested construction."""


class EmptyCellError(CondgofError):
    """A cell count required to be positive is zero."""


class SingularDesignError(CondgofError):
    """The regression design matrix is rank deficient."""


class DegenerateFitError(CondgofError):
    """A fitted scale collapsed below its lower bound.

    Carries the slope estimates computed before the failure in `beta`.
    """

    def __init__(self, message: str, beta=None):
        super().__init__(message)
        self.beta = beta


class SingularInformationError(CondgofError):
    """The estimated Fisher information matrix is numerically singular."""


class CovarianceConstructionError(CondgofError):
    """An estimated covariance matrix is not positive semidefinite."""


class InvalidDfError(CondgofError):
    """Degrees of freedom below 1 where a chi-square p-value is required."""


class InvalidStartError(CondgofError):
    """An optimizer starting point has a non-finite objective."""


class ConvergenceFailureError(CondgofError):
    """An iterative optimizer exhausted its budget or stalled.

    Carries the last iterate in `theta` so callers can inspect or resume.
    """

    def __init__(self, message: str, theta=None):
        super().__init__(message)
        self.theta = theta


class DataError(CondgofError):
    """Malformed input data file (CLI surface)."""


class UsageError(CondgofError):
    """Invalid flags or configuration (CLI surface)."""


class ExperimentInvalidError(CondgofError):
    """Too many failed replications for a simulation experiment to be valid."""


def as_integer(name: str, value, least: int) -> int:
    """value as an int; the package's one rule for integers: not a bool or a float, >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise InvalidArgumentError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def as_float_array(name: str, value, copy: bool = False) -> np.ndarray:
    """value as float64, a C-ordered copy if asked; only bool, integer and real float arrays pass."""
    try:
        arr = np.asarray(value)
        if arr.dtype.kind in "biuf":
            return np.array(arr, np.float64, order="C") if copy else np.asarray(arr, np.float64)
    except (TypeError, ValueError):
        pass
    raise InvalidArgumentError(f"{name} must be a rectangular array of numbers")


def whole_fields(owner, **minimums: int) -> None:
    """Store each named field of owner through as_integer with its minimum."""
    for name, least in minimums.items():
        object.__setattr__(owner, name, as_integer(name, getattr(owner, name), least))
