"""Information amount of a category from its embedding covariance.

The covariance estimated from m samples in p dimensions is denoised by
eigenvalue clipping: eigenvalues below lambda_- = (1 - sqrt(p/m))^2 are
lifted to that floor, which removes the spurious near-zero directions a
small sample produces. The information amount is then

    I = 1/2 * log2 det(Id + Sigma') = 1/2 * sum_k log2(1 + max(lambda_k, lambda_-))

read straight off the clipped spectrum of one `eigvalsh` per category,
never through a determinant or a rebuilt matrix, so it stays finite and
stable for any spectrum. `shrink_covariance` builds the clipped matrix
itself for callers who need it.

The floor is the raw square, never clamped: for m < p it grows past 1, and
a single-sample category (zero covariance, m=1) is deliberately inflated
to lambda_- in every direction rather than special-cased.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError, as_float, as_int
from .stats import GlobalStats, local_stats_from_arrays

__all__ = [
    "ShrinkageSpec",
    "InfoAmountTable",
    "shrink_covariance",
    "information_amount",
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


@dataclass(frozen=True)
class ShrinkageSpec:
    """Clipping parameters for a covariance built from m samples in p dims.

    Attributes
    ----------
    p : embedding dimension, >= 1.
    m : number of samples behind the covariance estimate, >= 1.
    """

    p: int
    m: int

    def __post_init__(self):
        if self.p < 1:
            raise InputError(f"p must be >= 1, got {self.p}")
        if self.m < 1:
            raise InputError(f"m must be >= 1, got {self.m}")

    @property
    def lambda_minus(self) -> float:
        """(1 - sqrt(p/m))^2; zero exactly when p = m."""
        return float((1.0 - np.sqrt(self.p / self.m)) ** 2)


@dataclass(frozen=True)
class InfoAmountTable:
    """Information amounts keyed by category id, tagged with the epoch."""

    amounts: dict[int, float]
    epoch: int = 0

    def ordered(self) -> list[tuple[int, float]]:
        return sorted(self.amounts.items())

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(category ids, amounts) as parallel arrays sorted by id."""
        items = self.ordered()
        ids = np.array([c for c, _ in items], dtype=np.int64)
        vals = np.array([v for _, v in items], dtype=np.float64)
        return ids, vals


def _checked_symmetric(cov: np.ndarray) -> np.ndarray:
    """`cov` as float64, itself when it is bitwise symmetric (as every
    covariance `stats` builds is), else symmetrized if the asymmetry is
    rounding-sized."""
    cov = np.asarray(cov, dtype=np.float64)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise InputError(f"covariance must be square, got shape {cov.shape}")
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


def _checked_for_spec(cov: np.ndarray, spec: ShrinkageSpec) -> np.ndarray:
    sym = _checked_symmetric(cov)
    if sym.shape[0] != spec.p:
        raise InputError(f"covariance is {sym.shape[0]}x{sym.shape[0]} but spec has p={spec.p}")
    return sym


def _decompose(eig, sym: np.ndarray):
    try:
        return eig(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc


def _psd_floor(eigvals: np.ndarray) -> np.ndarray:
    """Reject a genuinely non-PSD spectrum; floor rounding debris at zero."""
    if eigvals.min() < _PSD_SLACK:
        raise InputError(
            f"covariance is not positive semidefinite: eigenvalue {eigvals.min():.3g}"
        )
    return np.maximum(eigvals, 0.0)


def _half_log2_det(eigvals: np.ndarray) -> float:
    return float(np.sum(np.log2(1.0 + eigvals)) / 2.0)


def _clipped_amount(cov: np.ndarray, spec: ShrinkageSpec) -> float:
    """1/2 * sum_k log2(1 + max(lambda_k, lambda_-)) from one eigvalsh of cov.

    Equal to information_amount(shrink_covariance(cov, spec)) to round-off,
    with the same checks, but without the eigenvectors, the rebuilt matrix
    and its second decomposition.
    """
    sym = _checked_for_spec(cov, spec)
    eigvals = _psd_floor(_decompose(np.linalg.eigvalsh, sym))
    return _half_log2_det(np.maximum(eigvals, spec.lambda_minus))


def shrink_covariance(cov: np.ndarray, spec: ShrinkageSpec) -> np.ndarray:
    """Covariance with its spectrum clipped at lambda_-.

    Eigenvectors are kept; each eigenvalue becomes max(lambda, lambda_-),
    after flooring small negative rounding debris at zero. The result is
    symmetric with minimum eigenvalue >= lambda_-.
    """
    sym = _checked_for_spec(cov, spec)
    eigvals, eigvecs = _decompose(np.linalg.eigh, sym)
    clipped = np.maximum(_psd_floor(eigvals), spec.lambda_minus)
    out = (eigvecs * clipped) @ eigvecs.T
    return 0.5 * (out + out.T)


def information_amount(cov_shrunk: np.ndarray) -> float:
    """1/2 * log2 det(Id + Sigma) via the eigenvalue sum.

    The input is scored as given (no clipping); run `shrink_covariance`
    first for the denoised variant. Eigenvalues below -1e-6 are rejected
    as non-PSD; smaller negatives are treated as zero.
    """
    sym = _checked_symmetric(cov_shrunk)
    return _half_log2_det(_psd_floor(_decompose(np.linalg.eigvalsh, sym)))


def information_amount_from_embeddings(X: np.ndarray) -> float:
    """Information amount of one category from raw embeddings.

    Takes the population covariance of the rows of X with
    `local_stats_from_arrays` and reads the amount straight off its
    spectrum clipped for m = len(X) samples: one eigvalsh, equal to
    information_amount(shrink_covariance(cov, spec)) to round-off.
    """
    X = np.asarray(X, dtype=np.float64)
    (cs,) = local_stats_from_arrays(X, np.zeros(X.shape[:1], dtype=np.int64)).values()
    return _clipped_amount(cs.cov, ShrinkageSpec(p=X.shape[1], m=cs.total))


def information_amounts_from_stats(stats: GlobalStats, epoch: int = 0) -> InfoAmountTable:
    """Information amount per category from merged epoch statistics.

    Each amount is read straight off the category's clipped spectrum, one
    eigvalsh per category. The clip threshold uses that category's own
    merged sample count N_i, since the merged covariance represents N_i
    samples regardless of how the windows sliced them.
    """
    amounts = {
        cat: _clipped_amount(cs.cov, ShrinkageSpec(p=stats.p, m=cs.total))
        for cat, cs in stats.categories.items()
    }
    return InfoAmountTable(amounts=amounts, epoch=epoch)


def info_table_to_json(table: InfoAmountTable) -> dict:
    """JSON-ready form: {"epoch": int, "info": {"<category-id>": amount}}."""
    return {
        "epoch": table.epoch,
        "info": {str(cat): float(val) for cat, val in table.ordered()},
    }


def info_table_from_json(doc: dict) -> InfoAmountTable:
    try:
        raw_epoch = doc["epoch"]
        info = doc["info"]
        if not isinstance(info, dict):
            raise TypeError(f"'info' must map category ids to amounts, got {type(info).__name__}")
        pairs = [(int(key), key, val) for key, val in info.items()]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed information-amount document: {exc}") from exc
    epoch = as_int(raw_epoch, "epoch")
    amounts: dict[int, float] = {}
    for cat, key, val in pairs:
        cat = as_int(cat, "info category id", minimum=0)
        if cat in amounts:
            raise InputError(f"category {cat} appears more than once")
        val = as_float(val, f"info.{key}")
        if val < 0:
            raise InputError(f"category {cat}: information amount must be >= 0, got {val}")
        amounts[cat] = val
    # Only the spelling `info` writes: int() also takes "1_0", " 2", "+3" and
    # "07". Checked last, so a key that aliases another reports as a repeat.
    for cat, key, _ in pairs:
        if str(cat) != key:
            raise InputError(f"info key {key!r} is not a canonical decimal category id")
    return InfoAmountTable(amounts=amounts, epoch=epoch)
