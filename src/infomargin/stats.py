"""Per-category embedding statistics over bounded windows, merged exactly.

`EpochAccumulator` cuts an epoch's stream of `(n, p)` embedding batches
into disjoint windows of `capacity` rows. Each full window is snapshotted
into per-category (count, mean, covariance) triples as soon as it fills,
and each triple is folded at once into its category's running triple; at
epoch end the rows still pending form a final partial window, and the
running triples are the exact statistics of the epoch's records.

Covariances are population-normalized (divisor = count) and accumulated in
float64 regardless of input precision; the merge is exact in exact
arithmetic for any set of windows. `merge_stats` is pure and
order-insensitive, so merging may be parallelized or tree-reduced across
windows and categories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InputError, NumericalError, as_int

__all__ = [
    "CategoryStats",
    "GlobalStats",
    "EpochAccumulator",
    "local_stats_from_arrays",
    "merge_stats",
    "global_stats_to_json",
    "global_stats_from_json",
    "stats_entry_arrays",
]


@dataclass(frozen=True)
class CategoryStats:
    """Count, mean and population covariance of one category's records,
    and the number of windows merged into them."""

    total: int
    mean: np.ndarray
    cov: np.ndarray
    windows: int = 1


@dataclass
class GlobalStats:
    """Merged per-category statistics for one epoch; a category with no
    records is missing from `categories`."""

    p: int
    categories: dict[int, CategoryStats] = field(default_factory=dict)


def _checked_batch(X, categories, p: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """An (n, p) embedding batch as float64, with its (n,) category ids; a
    nonempty batch must have integer ids >= 0 and finite coordinates."""
    X = np.asarray(X, dtype=np.float64)
    categories = np.asarray(categories)
    if X.ndim != 2 or p not in (None, X.shape[1]):
        raise InputError(f"expected an (n, {p or 'p'}) embedding batch, got shape {X.shape}")
    if categories.shape != (X.shape[0],):
        raise InputError(
            f"categories shape {categories.shape} does not match {X.shape[0]} embeddings"
        )
    if X.size:
        if categories.dtype.kind not in "iu":
            raise InputError(f"category ids must be integers, got dtype {categories.dtype}")
        if categories.min() < 0:
            raise InputError(f"category must be >= 0, got {categories.min()}")
        # min and max propagate NaN and expose +-inf without an (n, p) temporary.
        if not (np.isfinite(X.min()) and np.isfinite(X.max())):
            raise InputError("non-finite coordinate in embedding batch")
    return X, categories


def local_stats_from_arrays(X: np.ndarray, categories: np.ndarray) -> dict[int, CategoryStats]:
    """Per-category mean and population covariance of one window.

    The covariance uses divisor n (population form), so a single-record
    category yields the zero matrix.

    Parameters
    ----------
    X : (n, p) float64 array of embeddings.
    categories : (n,) integer array of category ids >= 0; any other dtype
        or a negative id raises InputError.

    Returns
    -------
    One single-window CategoryStats per distinct category, keyed and
    ordered by category id.
    """
    X, categories = _checked_batch(X, categories)
    if X.size == 0:
        raise InputError(f"expected a nonempty (n, p) embedding matrix, got shape {X.shape}")
    # One stable sort groups the rows: each category's rows are a contiguous
    # run of `order`, in their original order, so `X[order[a:b]]` is the
    # same matrix a boolean mask would select, and the same bits follow.
    order = np.argsort(categories, kind="stable")
    ordered = categories[order]
    starts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    bounds = [0, *starts.tolist(), ordered.shape[0]]
    out = {}
    for a, b in zip(bounds[:-1], bounds[1:]):
        rows = X[order[a:b]]
        mean = rows.mean(axis=0)
        rows -= mean
        cov = rows.T @ rows / (b - a)
        cov = 0.5 * (cov + cov.T)
        out[int(ordered[a])] = CategoryStats(total=b - a, mean=mean, cov=cov)
    return out


def merge_stats(windows: Sequence[CategoryStats]) -> CategoryStats:
    """Merge one category's statistics over disjoint record sets exactly.

    With counts n_k, means mu_k and covariances S_k, the merged mean is the
    count-weighted mean and the merged covariance is

        S = (1/N) * ( sum_k n_k S_k + sum_k n_k (mu_k - mu)(mu_k - mu)^T )

    which equals the population covariance of the pooled data exactly in
    exact arithmetic, for any partition and any order (Chan, Golub &
    LeVeque, 1979). Totals and window counts add, so a merged result can be
    merged again.
    """
    if len(windows) == 0:
        raise InputError("cannot merge an empty window list")
    p = windows[0].mean.shape[0]
    for w in windows:
        if w.mean.shape[0] != p or w.cov.shape != (p, p):
            raise InputError(
                f"dimension mismatch in merge: expected p={p}, "
                f"got mean {w.mean.shape}, cov {w.cov.shape}"
            )
        if w.total < 1:
            raise InputError(f"window count must be >= 1, got {w.total}")
    total = sum(w.total for w in windows)
    mean = np.zeros(p, dtype=np.float64)
    for w in windows:
        mean += w.total * w.mean
    mean /= total
    cov = np.zeros((p, p), dtype=np.float64)
    for w in windows:
        d = w.mean - mean
        cov += w.total * w.cov
        cov += w.total * np.outer(d, d)
    cov /= total
    cov = 0.5 * (cov + cov.T)
    return CategoryStats(total=total, mean=mean, cov=cov,
                         windows=sum(w.windows for w in windows))


class EpochAccumulator:
    """The window/snapshot/merge cycle for one epoch's stream of embedding batches.

    `add` appends an `(n, p)` batch to the pending window. The window holds
    views of the added arrays (nothing is copied before the window closes),
    so callers must not modify a batch in place after adding it. Each time `capacity` rows are
    pending, per-category window statistics are taken over them, each is
    folded into its category's running statistics with `merge_stats`, and
    the window empties; a batch that crosses such a boundary is split
    there. Memory is at most d pending rows plus one running (count, mean,
    covariance) per category, O(d*p + C*p^2), however many windows close.

    `finalize` closes the epoch. The rows still pending form a final
    partial window, skipped when none are pending, so a stream of N rows
    against capacity d produces floor(N/d) + 1 windows when d does not
    divide N and N/d when it does. The windows partition the epoch's rows,
    so each category's running statistics are the exact statistics of the
    rows added this epoch, each counted once. Categories with no rows this
    epoch are missing from the result, and nothing carries over to the
    next epoch.

    This is the exact update loop the trainer runs; the CLI `stats` command
    uses it too so both paths share one implementation.
    """

    def __init__(self, capacity: int, p: int):
        if capacity < 1:
            raise InputError(f"queue capacity must be >= 1, got {capacity}")
        if p < 1:
            raise InputError(f"embedding dimension must be >= 1, got {p}")
        self.capacity = capacity
        self.p = p
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []
        self._pending_rows = 0
        self._running: dict[int, CategoryStats] = {}

    def add(self, X: np.ndarray, categories: np.ndarray) -> None:
        """Append an (n, p) batch with its (n,) integer category ids."""
        X, categories = _checked_batch(X, categories, self.p)
        n = X.shape[0]
        if n == 0:
            return
        categories = categories.astype(np.int64, copy=False)
        start = 0
        while start < n:
            stop = min(n, start + self.capacity - self._pending_rows)
            self._pending.append((X[start:stop], categories[start:stop]))
            self._pending_rows += stop - start
            start = stop
            if self._pending_rows == self.capacity:
                self._snapshot()

    def _snapshot(self) -> None:
        # A window that is one slice of one batch is used as it is; a copy
        # would double the rows in memory while the window is summarized.
        if len(self._pending) == 1:
            X, categories = self._pending[0]
        else:
            X, categories = (np.concatenate(parts) for parts in zip(*self._pending))
        # Overflow shows as inf or NaN in the statistics, which `finalize`
        # reports once per category; a warning per window would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            for cat, window in local_stats_from_arrays(X, categories).items():
                running = self._running.get(cat)
                self._running[cat] = window if running is None else merge_stats([running, window])
        self._pending = []
        self._pending_rows = 0

    def finalize(self) -> GlobalStats:
        """Final partial window, the running statistics, and reset for the next epoch.

        Raises NumericalError naming the first category whose mean or
        covariance overflowed float64 (finite records such as +-1e308).
        """
        if self._pending:
            self._snapshot()
        merged = dict(sorted(self._running.items()))
        self._running = {}
        for cat, cs in merged.items():
            if not (np.isfinite(cs.mean).all() and np.isfinite(cs.cov).all()):
                raise NumericalError(
                    f"category {cat}: its mean or covariance overflows float64"
                )
        return GlobalStats(p=self.p, categories=merged)


def global_stats_to_json(stats: GlobalStats) -> dict:
    """The statistics document {"p": ..., "categories": [{id, count, mean, cov_row_major}]},
    ready for `fileio.canonical_dumps`.

    `mean` and `cov_row_major` are 1-D float64 arrays that share memory with
    the statistics, not lists. `canonical_dumps` writes them as float lists,
    spelling each distinct value once; `json.dumps` needs
    `default=np.ndarray.tolist`.
    """
    return {
        "p": stats.p,
        "categories": [
            {
                "id": cat,
                "count": cs.total,
                "mean": cs.mean,
                "cov_row_major": cs.cov.reshape(-1),
            }
            for cat, cs in sorted(stats.categories.items())
        ],
    }


def _float_array(value, path: str) -> np.ndarray:
    """A list of numbers as float64. `dtype=np.float64` alone would read "0.5"
    as 0.5 and null as NaN; a `true` among numbers still reads as 1.0."""
    out = np.asarray(value)
    if out.dtype.kind not in "iuf":
        np.asarray(value, dtype=np.float64)  # numpy's error, if it has one
        raise TypeError(f"{path}: expected a list of numbers")
    return out.astype(np.float64, copy=False)


def stats_entry_arrays(obj: dict) -> dict:
    """`json.loads` object hook for the statistics document: an entry's
    `mean` and `cov_row_major` lists become float64 arrays as soon as the
    entry closes, so its Python floats are freed before the next entry is
    parsed.

    It never raises. A value that does not convert (a string, a null, a
    ragged list, an integer beyond float64) is left as it was, and
    `global_stats_from_json`, which takes lists or arrays, rejects it with
    the same message as without the hook.
    """
    for key in ("mean", "cov_row_major"):
        value = obj.get(key)
        if isinstance(value, list):
            try:
                obj[key] = _float_array(value, key)
            except (TypeError, ValueError, OverflowError):
                pass
    return obj


def global_stats_from_json(doc: dict) -> GlobalStats:
    try:
        raw_p = doc["p"]
        entries = doc["categories"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed statistics document: missing {exc}") from exc
    p = as_int(raw_p, "p", minimum=1)
    if not isinstance(entries, list):
        raise InputError(
            f"malformed statistics document: 'categories' must be a list, got {type(entries).__name__}"
        )
    categories: dict[int, CategoryStats] = {}
    for i, entry in enumerate(entries):
        try:
            raw_id, raw_count = entry["id"], entry["count"]
            mean = _float_array(entry["mean"], "mean")
            cov = _float_array(entry["cov_row_major"], "cov_row_major").reshape(p, p)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"malformed statistics entry: {exc}") from exc
        cat = as_int(raw_id, f"categories[{i}].id", minimum=0)
        count = as_int(raw_count, f"categories[{i}].count", minimum=1)
        if cat in categories:
            raise InputError(f"category {cat} appears more than once")
        if mean.shape != (p,):
            raise InputError(
                f"category {cat}: mean has shape {mean.shape}, expected ({p},)"
            )
        categories[cat] = CategoryStats(total=count, mean=mean, cov=cov)
    return GlobalStats(p=p, categories=categories)
