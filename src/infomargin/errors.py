"""Exception types shared across the package, and the checks of inputs:
integers, numbers, objects and lists from JSON, and (features, ids) batches.

The CLI maps these onto exit codes: InputError -> 2, NumericalError -> 3.
"""

import numpy as np

# One past the largest id an int64 holds.
_INT64_STOP = 2**63


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


def as_id(value, path: str) -> int:
    """`value` as a category id, an int in [0, 2**63) that an int64 holds; else
    InputError naming `path`."""
    value = as_int(value, path, minimum=0)
    if value >= _INT64_STOP:
        raise InputError(f"{path}: category id {value} exceeds {_INT64_STOP - 1}")
    return value


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


_JSON_TYPES = {type(None): "null", bool: "boolean", int: "number", float: "number",
               str: "string", list: "array", dict: "object"}


def json_type(value) -> str:
    """The JSON name of a parsed value's type, such as "null" or "array"."""
    return _JSON_TYPES.get(type(value), type(value).__name__)


def as_object(value, path: str) -> dict:
    """`value` if it is a dict (a JSON object), else InputError naming `path`
    and the JSON type it has."""
    if not isinstance(value, dict):
        raise InputError(f"{path}: expected an object, got {json_type(value)}")
    return value


def as_choice(value, path: str, choices: tuple[str, ...]) -> str:
    """`value` if it is one of the strings `choices`, else InputError naming `path`."""
    if not isinstance(value, str) or value not in choices:
        raise InputError(f"{path} must be one of {choices}, got {value!r}")
    return value


def as_number_array(value, path: str) -> np.ndarray:
    """A flat JSON list of numbers as a 1-D float64 array.

    Nested lists, strings (which `dtype=np.float64` parses), nulls (which it
    reads as NaN), booleans (which numpy promotes to 0 and 1 among numbers),
    integers beyond float64 and non-finite values (`json.loads` reads a
    literal such as 1e400 as inf) raise InputError naming `path`. Any string
    entry reads `expected a list of numbers`, whether numpy can parse it or not.
    """
    try:
        out = np.asarray(value)
        # Strings are refused before numpy's float conversion, which parses some.
        if out.dtype.kind == "O" and str not in set(map(type, out.flat)):
            np.asarray(value, dtype=np.float64)  # numpy's error, if it has one
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: {exc}") from None
    if (out.dtype.kind not in "iuf" or out.ndim != 1
            or isinstance(value, (list, tuple)) and bool in set(map(type, value))):
        raise InputError(f"{path}: expected a list of numbers")
    # min and max propagate NaN and expose +-inf without a boolean temporary.
    if out.size and not (np.isfinite(out.min()) and np.isfinite(out.max())):
        index = int(np.argmin(np.isfinite(out)))
        raise InputError(f"{path}: expected finite numbers, got {out[index]} at index {index}")
    return out.astype(np.float64, copy=False)


def as_batch(X, ids, where: str, p: int | None = None,
             C: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(X, ids) as an (n, p) finite float64 array and (n,) int64 ids.

    X is not copied when it already is a 2-D float64 array. The ids of a
    nonempty batch must have an integer, non-bool dtype and lie in [0, C)
    when C is given, else in [0, 2**63) (int64). Each error is an
    InputError that starts with `where` and names the first bad row.
    """
    X = np.asarray(X, dtype=np.float64)
    ids = np.asarray(ids)
    if X.ndim != 2 or p not in (None, X.shape[1]):
        raise InputError(f"{where}: expected an (n, {p or 'p'}) array, got shape {X.shape}")
    if ids.shape != (X.shape[0],):
        raise InputError(f"{where}: ids of shape {ids.shape} for {X.shape[0]} rows")
    # min and max propagate NaN and expose +-inf without an (n, p) temporary.
    if X.size and not (np.isfinite(X.min()) and np.isfinite(X.max())):
        row = int(np.argmin(np.isfinite(X).all(axis=1)))
        raise InputError(f"{where}: non-finite value in row {row}")
    if ids.size:
        if ids.dtype.kind not in "iu":
            raise InputError(f"{where}: ids must be integers, got dtype {ids.dtype}")
        stop = _INT64_STOP if C is None else C
        if ids.min() < 0 or ids.max() >= stop:
            row = int(np.argmax((ids < 0) | (ids >= stop)))
            raise InputError(f"{where}: id {ids[row]} in row {row} is outside [0, {stop})")
    return X, ids.astype(np.int64, copy=False)
