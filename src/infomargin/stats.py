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

from .errors import InputError, NumericalError, as_batch, as_id, as_int, as_number_array, \
    as_object, json_type

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


def local_stats_from_arrays(X: np.ndarray, categories: np.ndarray) -> dict[int, CategoryStats]:
    """Per-category mean and population covariance of one window.

    The covariance uses divisor n (population form), so a single-record
    category yields the zero matrix.

    Parameters
    ----------
    X : nonempty (n, p) array of finite embeddings.
    categories : (n,) integer array of category ids, checked with
        `errors.as_batch`.

    Returns
    -------
    One single-window CategoryStats per distinct category, keyed and
    ordered by category id.
    """
    X, categories = as_batch(X, categories, "embedding batch")
    if X.size == 0:
        raise InputError(f"expected a nonempty (n, p) embedding matrix, got shape {X.shape}")
    return _window_stats(X, categories)


def _window_stats(X: np.ndarray, categories: np.ndarray) -> dict[int, CategoryStats]:
    """`local_stats_from_arrays` on a checked float64 window and int64 ids."""
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

    `add` appends an `(n, p)` batch to the pending window. Each time
    `capacity` rows are pending, per-category window statistics are taken
    over them, each is folded into its category's running statistics with
    `merge_stats`, and the window empties; a batch that crosses such a
    boundary is split there. A window still open when `add` returns keeps a
    copy of its rows, so a caller may refill one buffer between calls.
    Memory is at most d pending rows plus one running (count, mean,
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
        self.capacity = as_int(capacity, "queue capacity", minimum=1)
        self.p = as_int(p, "embedding dimension", minimum=1)
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []
        self._pending_rows = 0
        self._running: dict[int, CategoryStats] = {}

    def add(self, X: np.ndarray, categories: np.ndarray) -> None:
        """Append an (n, p) batch with its (n,) integer category ids, checked
        with `errors.as_batch`: finite values and ids in [0, 2**63)."""
        X, categories = as_batch(X, categories, "embedding batch", p=self.p)
        n = X.shape[0]
        if n == 0:
            return
        start = 0
        while start < n:
            stop = min(n, start + self.capacity - self._pending_rows)
            self._pending.append((X[start:stop], categories[start:stop]))
            self._pending_rows += stop - start
            start = stop
            if self._pending_rows == self.capacity:
                self._snapshot()
        # Only the last piece can be a view of this batch; earlier pieces
        # of an open window were copied when their own `add` returned.
        if self._pending:
            self._pending[-1] = tuple(part.copy() for part in self._pending[-1])

    def _snapshot(self) -> None:
        # A window that is one slice of one batch is used as it is; a copy
        # would double the rows in memory while the window is summarized.
        if len(self._pending) == 1:
            X, categories = self._pending[0]
        else:
            X, categories = (np.concatenate(parts) for parts in zip(*self._pending))
        # `add` checked every row. Overflow shows as inf or NaN in the
        # statistics, which `finalize` reports once per category; a warning
        # per window would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            for cat, window in _window_stats(X, categories).items():
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


def stats_entry_arrays(obj: dict) -> dict:
    """`json.loads` object hook for the statistics document: an entry's
    `mean` and `cov_row_major` lists become float64 arrays as soon as the
    entry closes, so its Python floats are freed before the next entry is
    parsed.

    It never raises. A value that `errors.as_number_array` rejects is left
    as it was, and `global_stats_from_json`, which takes lists or arrays,
    rejects it with the same message as without the hook.
    """
    for key in ("mean", "cov_row_major"):
        value = obj.get(key)
        if isinstance(value, list):
            try:
                obj[key] = as_number_array(value, key)
            except InputError:
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
            f"malformed statistics document: 'categories' must be a list, got {json_type(entries)}"
        )
    categories: dict[int, CategoryStats] = {}
    for i, entry in enumerate(entries):
        where = f"categories[{i}]"
        entry = as_object(entry, where)
        try:
            raw_id, raw_count = entry["id"], entry["count"]
            raw_mean, raw_cov = entry["mean"], entry["cov_row_major"]
        except KeyError as exc:
            raise InputError(f"{where}: malformed statistics entry: {exc}") from exc
        mean = as_number_array(raw_mean, f"{where}.mean")
        cov = as_number_array(raw_cov, f"{where}.cov_row_major")
        try:
            cov = cov.reshape(p, p)
        except ValueError as exc:
            raise InputError(f"{where}.cov_row_major: {exc}") from None
        cat = as_id(raw_id, f"{where}.id")
        count = as_int(raw_count, f"{where}.count", minimum=1)
        if cat in categories:
            raise InputError(f"category {cat} appears more than once")
        if mean.shape != (p,):
            raise InputError(
                f"category {cat}: mean has shape {mean.shape}, expected ({p},)"
            )
        categories[cat] = CategoryStats(total=count, mean=mean, cov=cov)
    return GlobalStats(p=p, categories=categories)
