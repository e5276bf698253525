"""Information amount of a category from its embedding covariance.

The covariance estimated from m samples in p dimensions is denoised by
eigenvalue clipping: eigenvalues below lambda_- = (1 - sqrt(p/m))^2 are
lifted to that floor, which removes the spurious near-zero directions a
small sample produces. The information amount is then

    I = 1/2 * log2 det(Id + Sigma') = 1/2 * sum_k log2(1 + max(lambda_k, lambda_-))

read straight off the clipped spectrum of one `eigvalsh` per category,
never through a determinant or a rebuilt matrix, so it stays finite and
stable for any spectrum. `_clipped_amount` is the one place that does it.
Since lambda_-(p, p) = 0, a count of m = p scores a covariance as given,
unclipped.

The floor is the raw square, never clamped: for m < p it grows past 1, and
a single-sample category (zero covariance, m=1) is deliberately inflated
to lambda_- in every direction rather than special-cased.

An `InfoAmountTable` holds one set of amounts as parallel `ids` and
`amounts` arrays, sorted and checked once, when the table is built. Its
JSON form, as `info` writes it, is {"info": {"<category-id>": amount}}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError, as_float, as_id, as_int, json_type
from .stats import GlobalStats, local_stats_from_arrays

__all__ = [
    "lambda_minus",
    "InfoAmountTable",
    "information_amount_from_embeddings",
    "information_amounts_from_stats",
    "info_table_to_json",
    "info_table_from_json",
]

# Relative asymmetry beyond this is a malformed input, not float noise.
_SYM_RTOL = 1e-8
# Eigenvalues below this are a genuinely non-PSD input; above it they are
# rounding debris and get floored at zero.
_PSD_SLACK = -1e-6


def lambda_minus(p: int, m: int) -> float:
    """The clip floor (1 - sqrt(p/m))^2 for m samples in p dims; zero when p = m."""
    p, m = as_int(p, "p", minimum=1), as_int(m, "m", minimum=1)
    return float((1.0 - np.sqrt(p / m)) ** 2)


@dataclass(frozen=True)
class InfoAmountTable:
    """Information amounts of categories `ids`: (C,) int64 `ids` and (C,)
    float64 `amounts`, read-only copies sorted by id. A table is ordered and
    checked only here: a repeated or negative id, a negative or non-finite
    amount, or mismatched arrays raise InputError."""

    ids: np.ndarray
    amounts: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.ids)
        amounts = np.asarray(self.amounts, dtype=np.float64)
        if ids.ndim != 1 or amounts.shape != ids.shape or ids.size and not (
                ids.dtype.kind in "iu" and np.can_cast(ids.dtype, np.int64)):
            raise InputError(f"ids and amounts must be matching 1-D arrays of int64 ids and "
                             f"amounts, got {ids.dtype} {ids.shape} and {amounts.shape}")
        order = np.argsort(ids, kind="stable")
        ids, amounts = ids[order].astype(np.int64, copy=False), amounts[order]
        repeated = ids[1:][ids[1:] == ids[:-1]]
        bad = ~np.isfinite(amounts) | (amounts < 0)
        if ids.size and ids[0] < 0:
            raise InputError(f"category id must be >= 0, got {ids[0]}")
        if repeated.size:
            raise InputError(f"category {repeated[0]} appears more than once")
        if bad.any():
            cat, val = ids[bad][0], amounts[bad][0]
            rule = "must be >= 0" if np.isfinite(val) else "must be finite"
            raise InputError(f"category {cat}: information amount {rule}, got {val}")
        for name, arr in (("ids", ids), ("amounts", amounts)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(ids, amounts); kept only because `bench/worker.py` calls it."""
        return self.ids, self.amounts


def _checked_symmetric(cov: np.ndarray) -> np.ndarray:
    """`cov` as float64, itself when it is bitwise symmetric (as every
    covariance `stats` builds is), else symmetrized if the asymmetry is
    rounding-sized. A 0x0 matrix is rejected."""
    cov = np.asarray(cov, dtype=np.float64)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or not cov.size:
        raise InputError(f"covariance must be square and nonempty, got shape {cov.shape}")
    if not (np.isfinite(cov.min()) and np.isfinite(cov.max())):
        raise InputError("non-finite entries in covariance")
    # Compared as bits, not with ==: then 0.5 * (cov + cov.T) is cov itself,
    # so skipping it changes nothing (short of overflow), even where 0.0
    # faces -0.0.
    if np.array_equal(cov.view(np.uint64), cov.T.view(np.uint64)):
        return cov
    scale = np.abs(cov).max()
    asym = np.abs(cov - cov.T).max()
    if asym > _SYM_RTOL * max(scale, 1.0):
        raise InputError(
            f"covariance is not symmetric: max |A - A^T| = {asym:.3g} "
            f"against scale {scale:.3g}"
        )
    return 0.5 * (cov + cov.T)


def _clipped_amount(cov: np.ndarray, m: int) -> float:
    """1/2 * sum_k log2(1 + max(lambda_k, lambda_-)) from one eigvalsh of cov.

    `cov` is checked by `_checked_symmetric`, then `m` by `lambda_minus`, then
    the spectrum: an eigenvalue below `_PSD_SLACK` is a non-PSD input, and
    smaller negatives are rounding debris, floored at zero. With m = p the
    floor is zero, so the matrix is scored as given.
    """
    sym = _checked_symmetric(cov)
    floor = lambda_minus(sym.shape[0], m)
    try:
        # Looked up at call time, so a wrapper set on `numpy.linalg` sees the call.
        eigvals = np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    if eigvals.min() < _PSD_SLACK:
        raise InputError(
            f"covariance is not positive semidefinite: eigenvalue {eigvals.min():.3g}"
        )
    # floor >= 0, so this also floors the rounding debris at zero.
    return float(np.sum(np.log2(1.0 + np.maximum(eigvals, floor))) / 2.0)


def information_amount_from_embeddings(X: np.ndarray) -> float:
    """Information amount of one category from raw embeddings.

    Takes the population covariance of the rows of X with
    `local_stats_from_arrays` and reads the amount straight off its
    spectrum clipped for m = len(X) samples, with one eigvalsh, as
    `information_amounts_from_stats` does for a category of len(X) records.
    """
    X = np.asarray(X, dtype=np.float64)
    (cs,) = local_stats_from_arrays(X, np.zeros(X.shape[:1], dtype=np.int64)).values()
    return _clipped_amount(cs.cov, cs.total)


def information_amounts_from_stats(stats: GlobalStats) -> InfoAmountTable:
    """Information amount per category from merged epoch statistics.

    Each amount is read straight off the category's clipped spectrum, one
    eigvalsh per category. The clip threshold uses that category's own merged
    sample count N_i, since the merged covariance represents N_i samples
    regardless of how the windows sliced them. Each error names its category.
    """
    amounts = []
    for cat, cs in stats.categories.items():
        try:
            if np.shape(cs.cov) != (stats.p, stats.p):
                raise InputError(f"covariance has shape {np.shape(cs.cov)}, "
                                 f"expected ({stats.p}, {stats.p})")
            amounts.append(_clipped_amount(cs.cov, cs.total))
        except (InputError, NumericalError) as exc:
            raise type(exc)(f"category {cat}: {exc}") from exc
    return InfoAmountTable(list(stats.categories), amounts)


def info_table_to_json(table: InfoAmountTable) -> dict:
    """JSON-ready form: {"info": {"<category-id>": amount}}."""
    return {"info": dict(zip(map(str, table.ids.tolist()), table.amounts.tolist()))}


def info_table_from_json(doc: dict) -> InfoAmountTable:
    """The table of an `info` document. Keys other than "info" are ignored,
    among them the "epoch" that earlier versions wrote."""
    try:
        info = doc["info"]
        if not isinstance(info, dict):
            raise TypeError(f"'info' must map category ids to amounts, got {json_type(info)}")
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed information-amount document: {exc}") from exc
    ids = []
    for key in info:
        try:
            ids.append(int(key))
        except (TypeError, ValueError):
            raise _non_canonical(key) from None
    ids = [as_id(cat, "category id") for cat in ids]
    amounts = [as_float(val, f"info.{key}") for key, val in info.items()]
    table = InfoAmountTable(ids, amounts)
    # Only the spelling `info` writes: int() also takes "1_0", " 2", "+3" and
    # "07". Checked last, so a key that aliases another reports as a repeat.
    for cat, key in zip(ids, info):
        if str(cat) != key:
            raise _non_canonical(key)
    return table


def _non_canonical(key) -> InputError:
    return InputError(f"info key {key!r} is not a canonical decimal category id")
