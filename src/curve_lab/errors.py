"""Exception types shared across the package, and the one rule by which every
entry point reads its numbers and point ids."""
import operator

import numpy as np


class CurveLabError(Exception):
    """Base class for all curve-lab errors."""


class InputError(CurveLabError):
    """Malformed or precondition-violating input."""


class DegenerateInputError(InputError):
    """Input is structurally valid but degenerate for the operation."""


class InconsistentDataError(InputError):
    """Declared metadata contradicts the data itself (e.g. bad Lipschitz bound)."""


class HorizonError(CurveLabError):
    """A bounded search ran out of budget before finding an admissible element."""

    def __init__(self, message: str, level: int | None = None):
        super().__init__(message)
        self.level = level


class ScheduleError(InputError):
    """A multi-scale schedule cannot be realized on the given grid."""


# float() and numpy read "1" and true as numbers, and numpy reads a complex
# number as its real part; the JSON formats take none of them.
_NOT_NUMBERS = (str, bytes, bool, np.bool_, complex, np.complexfloating)


def _point_id(i) -> int:
    """``int(i)`` of a point id; a string, a bool, a float that is not an
    integer, a list or any other non-integer is an input error rather than a
    truncated id."""
    if isinstance(i, (float, np.floating)) and float(i).is_integer():
        return int(i)
    if not isinstance(i, _NOT_NUMBERS):
        try:
            return operator.index(i)
        except TypeError:
            pass
    raise InputError(f"point id {i!r} is not an integer" if isinstance(i, str)
                     else f"point id {i} is not an integer")


def _number(x, what: str) -> float:
    """``float(x)`` of a real number; a string, a bool, a complex number or a
    non-number is an input error."""
    try:
        if not isinstance(x, _NOT_NUMBERS):
            return float(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InputError(f"{what} {x!r} is not a number")


def _float_array(data, what: str, ndim: int | None = None) -> np.ndarray:
    """``data`` as a finite float array, of ``ndim`` dimensions if given; a
    string, a bool or a complex number in it, a ragged nesting, another
    dimension count and a NaN or an infinity are input errors.  An ndarray
    of floats comes back as itself."""
    try:
        leaves = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=object)
        types = set(map(type, leaves.flat)) if leaves.dtype.kind in "bcOSU" else ()
        if any(issubclass(t, _NOT_NUMBERS) for t in types):
            raise InputError(f"{what} must hold numbers, not strings, booleans or complex values")
        arr = np.asarray(leaves, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{what} must be a numeric array: {exc}") from exc
    if ndim is not None and arr.ndim != ndim:
        raise InputError(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InputError(f"{what} must be finite")
    return arr
