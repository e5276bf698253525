"""Exception types shared across the package, and the integer and number
checks of JSON inputs.

The CLI maps these onto exit codes: InputError -> 2, NumericalError -> 3.
"""

import numpy as np


class InputError(ValueError):
    """Malformed or out-of-contract input (bad dimensions, bad files, bad flags)."""


class NumericalError(RuntimeError):
    """A numerical routine failed (eigendecomposition, overflow, divergence)."""


class TrainingDivergedError(NumericalError):
    """Training produced a non-finite loss."""


def as_int(value, path: str, minimum: int | None = None) -> int:
    """`value` as an int; bools, floats, strings and values below `minimum`
    raise InputError naming `path`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InputError(f"{path} must be >= {minimum}, got {value}")
    return int(value)


def as_float(value, path: str) -> float:
    """`value` as a finite float; bools, strings and non-finite values raise
    InputError naming `path`."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InputError(f"{path}: expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        # A Python int beyond float64; its digits could run to thousands.
        raise InputError(
            f"{path}: expected a finite number, got an integer too large for float64"
        ) from None
    if not np.isfinite(out):
        raise InputError(f"{path}: expected a finite number, got {value!r}")
    return out


def as_choice(value, path: str, choices: tuple[str, ...]) -> str:
    """`value` if it is one of the strings `choices`, else InputError naming `path`."""
    if not isinstance(value, str) or value not in choices:
        raise InputError(f"{path} must be one of {choices}, got {value!r}")
    return value


def as_number_array(value, path: str) -> np.ndarray:
    """A JSON list of numbers as an array of the dtype numpy finds; strings (which
    `dtype=np.float64` parses), nulls, booleans (which numpy promotes to 0 and 1
    among numbers) and ragged lists raise InputError."""
    try:
        out = np.asarray(value)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    if out.dtype.kind not in "iuf" or _has_bool(value):
        raise InputError(f"{path}: expected a list of numbers")
    return out


def _has_bool(value) -> bool:
    """Whether `value` is a bool or a (nested) list holding one."""
    if isinstance(value, (list, tuple)):
        return any(_has_bool(v) for v in value)
    return isinstance(value, bool)
