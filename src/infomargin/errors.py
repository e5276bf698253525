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
    if isinstance(value, bool) or not isinstance(value, (int, float, np.floating)):
        raise InputError(f"{path}: expected a number, got {value!r}")
    out = float(value)
    if not np.isfinite(out):
        raise InputError(f"{path}: expected a finite number, got {value!r}")
    return out
