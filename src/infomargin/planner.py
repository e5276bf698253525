"""Queue-length planning: how much memory windowed statistics save.

Keeping every instance embedding costs N*p reals. The windowed strategy
keeps a queue of d embeddings plus, per category, one (p x p) covariance
per snapshot window, of which an N-instance epoch produces K = floor(N/d)+1.
The storage ratio

    R(d) = (d + C * (floor(N/d) + 1) * p) / N

compares the two (it is the windowed byte count divided by N*p; the
per-real factor p cancels). Small d means frequent snapshots and many
stored covariances; large d approaches storing everything. The planner
minimizes R over d.

This is the paper's accounting, and the figures here keep it. The
package's `EpochAccumulator` stores less: it folds each window into one
running (count, mean, covariance) per category as the window closes, so it
holds d*p + C*(p*p + p) reals whatever K is. For it, d no longer trades
stored covariances against the queue; it trades the number of windows
(snapshot work) against the d*p pending rows.

Byte figures price each stored real at 4 bytes and megabytes at 2^20
bytes. Window means (C*K*p reals) ride along with the covariances in a
real deployment but are excluded from `bytes_new` for comparability; the
inclusive figure is reported as `bytes_new_with_means`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, as_choice, as_int

__all__ = [
    "PlanInput",
    "PlanResult",
    "storage_ratio",
    "optimal_queue_length",
    "memory_report",
    "plan_result_to_json",
]

SEARCH_MODES = ("coarse-grid", "exact-integer")

_BYTES_PER_REAL = 4
_MB = 2**20

# The reference grid search starts at this queue length; for smaller N use
# the exact-integer mode, which scans every block of constant floor(N/d).
_GRID_LOW = 1000
_GRID_POINTS = 100


@dataclass(frozen=True)
class PlanInput:
    """Problem size: N instances, p-dimensional embeddings, C categories."""

    N: int
    p: int
    C: int
    search: str = "coarse-grid"

    def __post_init__(self):
        for name in ("N", "p", "C"):
            object.__setattr__(self, name, as_int(getattr(self, name), name, minimum=1))
        as_choice(self.search, "search", SEARCH_MODES)


@dataclass(frozen=True)
class PlanResult:
    """A queue length with its storage ratio and byte accounting."""

    d_star: int
    R: float
    savings_percent: float
    bytes_original: int
    bytes_new: int
    bytes_new_with_means: int


def storage_ratio(inp: PlanInput, d: int) -> float:
    """R(d) = (d + C*(floor(N/d)+1)*p) / N for an integer queue length."""
    if not 1 <= d <= inp.N:
        raise InputError(f"queue length d must lie in [1, {inp.N}], got {d}")
    K = inp.N // d + 1
    return (d + inp.C * K * inp.p) / inp.N


def memory_report(inp: PlanInput, d: int) -> PlanResult:
    """Byte accounting at a given queue length.

    bytes_original prices one p-vector per instance; bytes_new prices the
    queue (d embeddings) plus C*K covariance matrices of p^2 reals each.
    """
    R = storage_ratio(inp, d)
    K = inp.N // d + 1
    bytes_original = inp.N * inp.p * _BYTES_PER_REAL
    bytes_new = (d * inp.p + inp.C * K * inp.p * inp.p) * _BYTES_PER_REAL
    bytes_means = inp.C * K * inp.p * _BYTES_PER_REAL
    return PlanResult(
        d_star=d,
        R=R,
        savings_percent=100.0 * (1.0 - R),
        bytes_original=bytes_original,
        bytes_new=bytes_new,
        bytes_new_with_means=bytes_new + bytes_means,
    )


def _grid_optimum(inp: PlanInput) -> int:
    if inp.N < _GRID_LOW:
        raise InputError(
            f"coarse-grid search needs N >= {_GRID_LOW} (grid spans [{_GRID_LOW}, N]); "
            f"got N={inp.N}; use search='exact-integer' (CLI: --mode exact)"
        )
    d = np.linspace(_GRID_LOW, inp.N, _GRID_POINTS)
    R = (d + inp.C * (np.floor(inp.N / d) + 1) * inp.p) / inp.N
    return int(d[int(np.argmin(R))])


def _exact_optimum(inp: PlanInput) -> int:
    # Within a block of constant K = floor(N/d) + 1, R is increasing in d,
    # so each block's minimum sits at its left endpoint; the block left
    # endpoints are enumerable in O(sqrt(N)).
    best_d, best_R = 1, storage_ratio(inp, 1)
    d = 1
    while d <= inp.N:
        R = storage_ratio(inp, d)
        if R < best_R:
            best_d, best_R = d, R
        d = inp.N // (inp.N // d) + 1
    return best_d


def optimal_queue_length(inp: PlanInput) -> PlanResult:
    """Queue length minimizing R, by the configured search mode.

    "coarse-grid" evaluates R on a 100-point linear grid over [1000, N]
    (fractional d scored with a real-valued floor) and truncates the
    argmin to an integer; "exact-integer" returns the smallest integer d
    attaining the global minimum. Reported figures are always recomputed
    at the returned integer d.
    """
    if inp.search == "coarse-grid":
        d_star = _grid_optimum(inp)
    else:
        d_star = _exact_optimum(inp)
    return memory_report(inp, d_star)


def plan_result_to_json(result: PlanResult) -> dict:
    doc = {
        "d_star": result.d_star,
        "R": result.R,
        "savings_percent": result.savings_percent,
        "bytes_original": result.bytes_original,
        "bytes_new": result.bytes_new,
        "bytes_new_with_means": result.bytes_new_with_means,
        "mb_original": result.bytes_original / _MB,
        "mb_new": result.bytes_new / _MB,
    }
    return doc
