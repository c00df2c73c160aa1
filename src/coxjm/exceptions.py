"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: validation problems exit 2, numerical /
convergence failures exit 3, I/O problems exit 4.
"""

import math
import numbers
from contextlib import contextmanager


class CoxjmError(Exception):
    """Base class for all package errors."""


class ValidationError(CoxjmError, ValueError):
    """Invalid data, configuration or argument."""


@contextmanager
def reading(what: str):
    """Raise a missing key (KeyError), an unknown key or a value of the wrong type (TypeError,
    ValueError) met while reading the `what` document as a ValidationError that names it."""
    try:
        yield
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {what}: {type(exc).__name__}: {exc}") from exc


def check_fields(obj, integers=(), finite=(), least=None):
    """Refuse, naming the field, an attribute of `obj` named in `integers` that is not an
    integer, one named in `finite` that is not a finite number, or one below its bound in
    the dict `least`."""
    for name in integers:
        if not isinstance(getattr(obj, name), numbers.Integral):
            raise ValidationError(f"{name} must be an integer, got {getattr(obj, name)!r}")
    for name in finite:
        if not math.isfinite(getattr(obj, name)):
            raise ValidationError(f"{name} must be finite, got {getattr(obj, name)!r}")
    for name, low in (least or {}).items():
        if getattr(obj, name) < low:
            raise ValidationError(f"{name} must be >= {low}, got {getattr(obj, name)!r}")


class InsufficientDataError(ValidationError):
    """Too little data to carry out the requested estimation."""


class DegenerateRiskSetError(CoxjmError):
    """A risk-set sum is zero at some event time."""

    def __init__(self, time: float, message: str | None = None):
        self.time = time
        super().__init__(message or f"degenerate risk set at event time {time!r}")


class ModeSearchError(CoxjmError):
    """A subject's posterior mode is not finite (an infinite or NaN hazard mass or
    transition mean, or an overflow at extreme parameters)."""

    def __init__(self, subject_id, message: str | None = None):
        self.subject_id = subject_id
        super().__init__(message or f"posterior mode not finite for subject {subject_id!r}")


class NonConvergenceError(CoxjmError):
    """An iterative fit did not converge."""


class SingularOperatorError(CoxjmError):
    """The discretized information operator is not positive definite, or a solve with it
    leaves too large a backward error."""
