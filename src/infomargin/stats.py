"""Per-category embedding statistics over bounded windows, merged exactly.

`EpochAccumulator` keeps a fixed-capacity FIFO queue of the most recent
`capacity` embeddings. Batches go in as `(n, p)` arrays; every time
`capacity` new rows have arrived, per-category (count, mean, covariance)
triples are snapshotted over the queue; at epoch end a final snapshot is
taken over whatever the queue holds and all snapshots are merged into
exact dataset-level statistics.

Covariances are population-normalized (divisor = count) and accumulated in
float64 regardless of input precision; the merge is exact in exact
arithmetic for any set of windows. LocalStats values are immutable once
produced; `merge_stats` is pure and order-insensitive, so merging may be
parallelized or tree-reduced across windows and categories.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError

__all__ = [
    "LocalStats",
    "CategoryStats",
    "GlobalStats",
    "EpochAccumulator",
    "local_stats_from_arrays",
    "merge_stats",
    "global_stats_to_json",
    "global_stats_from_json",
]


@dataclass(frozen=True)
class LocalStats:
    """Count, mean and population covariance of one category in one window."""

    category: int
    count: int
    mean: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True)
class CategoryStats:
    """Dataset-level statistics for one category after merging windows."""

    total: int
    mean: np.ndarray
    cov: np.ndarray
    windows: int = 1


@dataclass
class GlobalStats:
    """Merged per-category statistics for one epoch.

    `absent` lists expected categories that saw zero records this epoch;
    downstream consumers keep their previous information amounts.
    """

    p: int
    categories: dict[int, CategoryStats] = field(default_factory=dict)
    absent: tuple[int, ...] = ()


def local_stats_from_arrays(X: np.ndarray, categories: np.ndarray) -> list[LocalStats]:
    """Per-category mean and population covariance of one window.

    The covariance uses divisor n (population form), so a single-record
    category yields the zero matrix.

    Parameters
    ----------
    X : (n, p) float64 array of embeddings.
    categories : (n,) integer array of category ids.

    Returns
    -------
    One LocalStats per distinct category, ordered by category id.
    """
    X = np.asarray(X, dtype=np.float64)
    categories = np.asarray(categories)
    if X.ndim != 2 or X.shape[0] == 0:
        raise InputError(f"expected a nonempty (n, p) embedding matrix, got shape {X.shape}")
    if categories.shape != (X.shape[0],):
        raise InputError(
            f"categories shape {categories.shape} does not match {X.shape[0]} embeddings"
        )
    if not np.all(np.isfinite(X)):
        raise InputError("non-finite coordinates in embedding batch")
    out = []
    for cat in np.unique(categories):
        rows = X[categories == cat]
        n = rows.shape[0]
        mean = rows.mean(axis=0)
        centered = rows - mean
        cov = centered.T @ centered / n
        cov = 0.5 * (cov + cov.T)
        out.append(LocalStats(category=int(cat), count=n, mean=mean, cov=cov))
    return out


def merge_stats(windows: Sequence[LocalStats]) -> CategoryStats:
    """Merge same-category window statistics into exact global statistics.

    With window counts n_k, means mu_k and covariances S_k, the merged
    mean is the count-weighted mean and the merged covariance is

        S = (1/N) * ( sum_k n_k S_k + sum_k n_k (mu_k - mu)(mu_k - mu)^T )

    which equals the population covariance of the pooled data exactly in
    exact arithmetic, for any partition and any window order.
    """
    if len(windows) == 0:
        raise InputError("cannot merge an empty window list")
    cat = windows[0].category
    p = windows[0].mean.shape[0]
    for w in windows:
        if w.category != cat:
            raise InputError(f"mixed categories in merge: {cat} and {w.category}")
        if w.mean.shape[0] != p or w.cov.shape != (p, p):
            raise InputError(
                f"dimension mismatch in merge for category {cat}: "
                f"expected p={p}, got mean {w.mean.shape}, cov {w.cov.shape}"
            )
        if w.count < 1:
            raise InputError(f"window count must be >= 1, got {w.count}")
    total = sum(w.count for w in windows)
    mean = np.zeros(p, dtype=np.float64)
    for w in windows:
        mean += w.count * w.mean
    mean /= total
    cov = np.zeros((p, p), dtype=np.float64)
    for w in windows:
        d = w.mean - mean
        cov += w.count * w.cov
        cov += w.count * np.outer(d, d)
    cov /= total
    cov = 0.5 * (cov + cov.T)
    return CategoryStats(total=total, mean=mean, cov=cov, windows=len(windows))


def _stack(pieces, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate (X, categories) pieces, oldest first."""
    if not pieces:
        return np.empty((0, p)), np.empty(0, dtype=np.int64)
    X, categories = zip(*pieces)
    return np.concatenate(X), np.concatenate(categories)


class EpochAccumulator:
    """The queue/snapshot/merge cycle for one stream of embedding batches.

    `add` appends an `(n, p)` batch to a FIFO queue of capacity `capacity`.
    The queue holds views of the added arrays (nothing is copied), trimmed
    to the most recent `capacity` rows, so callers must not modify a batch
    in place after adding it. Each time `capacity` rows have arrived since
    the last snapshot, per-category window statistics are taken over the
    whole queue; a batch that crosses such a boundary is split there.

    `finalize` closes the epoch. A final window is snapshotted over the
    current queue contents (even when the queue is not full) whenever at
    least one row arrived since the last snapshot, so a stream of N rows
    against capacity d produces floor(N/d) + 1 windows when d does not
    divide N. When the stream ends exactly on a snapshot boundary the final
    window would repeat the previous one verbatim and is skipped (N = d
    yields statistics identical to a direct full-data computation). Each
    category's windows are merged oldest first. Categories with no rows
    this epoch are excluded and, when part of `expected_categories`,
    reported in `GlobalStats.absent`; their stale rows still in the queue
    are ignored. Queue contents persist across epochs; only the snapshot
    counter and the per-epoch windows reset.

    This is the exact update loop the trainer runs; the CLI `stats` command
    uses it too so both paths share one implementation. When
    `keep_window_contents` is set, the rows covered by every snapshot
    window are retained so callers can cross-check the merged statistics
    against a direct pooled computation.
    """

    def __init__(self, capacity: int, p: int, keep_window_contents: bool = False):
        if capacity < 1:
            raise InputError(f"queue capacity must be >= 1, got {capacity}")
        if p < 1:
            raise InputError(f"embedding dimension must be >= 1, got {p}")
        self.capacity = capacity
        self.p = p
        self._queue: deque[tuple[np.ndarray, np.ndarray]] = deque()
        self._queued = 0
        self._since_snapshot = 0
        self._seen: set[int] = set()
        self._windows: dict[int, list[LocalStats]] = {}
        self._keep = keep_window_contents
        self._kept: list[tuple[np.ndarray, np.ndarray]] = []

    def add(self, X: np.ndarray, categories: np.ndarray) -> None:
        """Append an (n, p) batch with its (n,) integer category ids."""
        X = np.asarray(X, dtype=np.float64)
        categories = np.asarray(categories)
        if X.ndim != 2 or X.shape[1] != self.p:
            raise InputError(f"expected an (n, {self.p}) embedding batch, got shape {X.shape}")
        if categories.shape != (X.shape[0],):
            raise InputError(
                f"categories shape {categories.shape} does not match {X.shape[0]} embeddings"
            )
        n = X.shape[0]
        if n == 0:
            return
        if categories.dtype.kind not in "iu":
            raise InputError(f"category ids must be integers, got dtype {categories.dtype}")
        if categories.min() < 0:
            raise InputError(f"category must be >= 0, got {categories.min()}")
        # min and max propagate NaN and expose +-inf without an (n, p) temporary.
        if not (np.isfinite(X.min()) and np.isfinite(X.max())):
            raise InputError("non-finite coordinate in embedding batch")
        categories = categories.astype(np.int64, copy=False)
        self._seen.update(np.unique(categories).tolist())
        start = 0
        while start < n:
            stop = min(n, start + self.capacity - self._since_snapshot)
            self._push(X[start:stop], categories[start:stop])
            self._since_snapshot += stop - start
            start = stop
            if self._since_snapshot == self.capacity:
                self._since_snapshot = 0
                self._snapshot()

    def _push(self, X: np.ndarray, categories: np.ndarray) -> None:
        self._queue.append((X, categories))
        self._queued += X.shape[0]
        while self._queued > self.capacity:
            X0, c0 = self._queue.popleft()
            excess = self._queued - self.capacity
            if X0.shape[0] > excess:
                self._queue.appendleft((X0[excess:], c0[excess:]))
                self._queued -= excess
            else:
                self._queued -= X0.shape[0]

    def _snapshot(self) -> None:
        for ls in local_stats_from_arrays(*_stack(self._queue, self.p)):
            self._windows.setdefault(ls.category, []).append(ls)
        if self._keep:
            self._kept.extend(self._queue)

    def finalize(self, expected_categories: Iterable[int] | None = None) -> GlobalStats:
        """Final snapshot, per-category merge, and reset for the next epoch."""
        if self._since_snapshot > 0:
            self._snapshot()
        merged = {
            cat: merge_stats(windows)
            for cat, windows in sorted(self._windows.items())
            if cat in self._seen
        }
        absent: tuple[int, ...] = ()
        if expected_categories is not None:
            absent = tuple(c for c in sorted(expected_categories) if c not in merged)
        self._since_snapshot = 0
        self._seen = set()
        self._windows = {}
        return GlobalStats(p=self.p, categories=merged, absent=absent)

    def window_records(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, categories) of all rows covered by snapshot windows so far,
        with multiplicity, oldest window first."""
        return _stack(self._kept, self.p)

    def reset_window_records(self) -> None:
        self._kept = []


def global_stats_to_json(stats: GlobalStats) -> dict:
    """JSON-ready form: {"p": ..., "categories": [{id, count, mean, cov_row_major}]}."""
    return {
        "p": stats.p,
        "categories": [
            {
                "id": cat,
                "count": cs.total,
                "mean": [float(v) for v in cs.mean],
                "cov_row_major": [float(v) for v in cs.cov.reshape(-1)],
            }
            for cat, cs in sorted(stats.categories.items())
        ],
    }


def global_stats_from_json(doc: dict) -> GlobalStats:
    try:
        p = int(doc["p"])
        entries = doc["categories"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed statistics document: missing {exc}") from exc
    if not isinstance(entries, list):
        raise InputError(
            f"malformed statistics document: 'categories' must be a list, got {type(entries).__name__}"
        )
    categories: dict[int, CategoryStats] = {}
    for entry in entries:
        try:
            cat = int(entry["id"])
            count = int(entry["count"])
            mean = np.asarray(entry["mean"], dtype=np.float64)
            cov = np.asarray(entry["cov_row_major"], dtype=np.float64).reshape(p, p)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed statistics entry: {exc}") from exc
        if cat in categories:
            raise InputError(f"category {cat} appears more than once")
        if count < 1:
            raise InputError(f"category {cat}: count must be >= 1, got {count}")
        if mean.shape != (p,):
            raise InputError(
                f"category {cat}: mean has shape {mean.shape}, expected ({p},)"
            )
        categories[cat] = CategoryStats(total=count, mean=mean, cov=cov)
    return GlobalStats(p=p, categories=categories)
