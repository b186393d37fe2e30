"""Exception types shared across the library, and the input checks they share:
finite reals, integers and real arrays."""

import math
import operator
from numbers import Real

import numpy as np


class StableError(Exception):
    """Base class for all library-specific errors.

    ``code`` is a machine-readable slug for CLI error objects; subclasses
    carry a default and constructors may override it for finer cases
    (e.g. unreadable_file vs malformed_json).
    """

    code = "stable_error"

    def __init__(self, message, *, code=None):
        super().__init__(message)
        if code is not None:
            self.code = code


class ValidationError(StableError):
    """Input data violates a structural invariant (bad atom, bad spec file)."""

    code = "validation_error"


class DomainError(StableError):
    """Parameter lies outside the mathematical domain of an operation."""

    code = "domain_error"


class DimensionError(StableError):
    """Vector or measure dimension does not match the operation's contract."""

    code = "dimension_error"


class NumericalError(StableError):
    """A numeric evaluation failed or missed the requested accuracy.

    ``estimate`` optionally carries the error estimate that tripped the
    failure.
    """

    code = "numerical_error"

    def __init__(self, message, *, estimate=None, code=None):
        super().__init__(message, code=code)
        self.estimate = estimate


class DegenerateError(StableError):
    """An operation hit a degenerate configuration (e.g. a zero norm)."""

    code = "degenerate_error"


class DegenerateMapError(DegenerateError):
    """A linear pushforward collapsed to the zero measure."""

    code = "degenerate_map_error"


class AxisSupportError(StableError):
    """Measure support violates an axis-support precondition."""

    code = "axis_support_error"


class TruncationError(StableError):
    """A series did not reach the requested tolerance within the term cap.

    ``expansion`` carries the partial expansion computed so far.
    """

    code = "truncation_error"

    def __init__(self, message, *, expansion=None, code=None):
        super().__init__(message, code=code)
        self.expansion = expansion


def finite_real(value, what: str) -> float:
    """``value`` as a float if it is a finite real number, else ValidationError.

    Booleans and strings are not numbers here, even where ``float()`` would
    take them.
    """
    # The exact-float test comes first because the Real ABC's test is slow,
    # and a spec file passes every atom coordinate through here.
    if type(value) is float or (isinstance(value, Real) and not isinstance(value, bool)):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int past the float range
            pass
    raise ValidationError(f"{what} must be a finite real number, got {value!r}")


def integer(value, what: str, error=DomainError) -> int:
    """``value`` as an int if it is an integer (a numpy one too), else
    ``error`` naming ``what``.  Booleans are not integers here."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{what} must be an integer, got {value!r}")


def real_array(value, what: str) -> np.ndarray:
    """``value`` as a float array, else DomainError naming ``what``: a
    string, say, or an int past the float range."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{what} must hold real numbers ({exc})") from None
