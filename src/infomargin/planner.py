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

__all__ = ["PlanInput", "storage_ratio", "optimal_queue_length", "memory_report"]

MODES = ("grid", "exact")

_BYTES_PER_REAL = 4
_MB = 2**20

# The reference grid search starts at this queue length; for smaller N use
# the exact mode, which scans every block of constant floor(N/d).
_GRID_LOW = 1000
_GRID_POINTS = 100


@dataclass(frozen=True)
class PlanInput:
    """Problem size: N instances, p-dimensional embeddings, C categories."""

    N: int
    p: int
    C: int
    mode: str = "grid"

    def __post_init__(self):
        for name in ("N", "p", "C"):
            object.__setattr__(self, name, as_int(getattr(self, name), name, minimum=1))
        as_choice(self.mode, "mode", MODES)


def storage_ratio(inp: PlanInput, d):
    """R(d) = (d + C*(floor(N/d)+1)*p) / N for one queue length or an array.

    For integer d and N < 2^52 this rounds the exact ratio once: the floor
    of the rounded N/d is N//d, and every other term is an exact integer."""
    if not (np.min(d) >= 1 and np.max(d) <= inp.N):
        raise InputError(f"queue length d must lie in [1, {inp.N}], got {d}")
    return (d + inp.C * (np.floor(inp.N / d) + 1) * inp.p) / inp.N


def memory_report(inp: PlanInput, d: int) -> dict:
    """The plan document at a given queue length.

    bytes_original prices one p-vector per instance; bytes_new prices the
    queue (d embeddings) plus C*K covariance matrices of p^2 reals each.
    """
    R = float(storage_ratio(inp, d))
    K = inp.N // d + 1
    bytes_original = inp.N * inp.p * _BYTES_PER_REAL
    bytes_new = (d * inp.p + inp.C * K * inp.p * inp.p) * _BYTES_PER_REAL
    return {
        "d_star": d,
        "R": R,
        "savings_percent": 100.0 * (1.0 - R),
        "bytes_original": bytes_original,
        "bytes_new": bytes_new,
        "bytes_new_with_means": bytes_new + inp.C * K * inp.p * _BYTES_PER_REAL,
        "mb_original": bytes_original / _MB,
        "mb_new": bytes_new / _MB,
    }


def _grid_optimum(inp: PlanInput) -> int:
    if inp.N < _GRID_LOW:
        raise InputError(
            f"grid search needs N >= {_GRID_LOW} (grid spans [{_GRID_LOW}, N]); "
            f"got N={inp.N}; use mode='exact' (CLI: --mode exact)"
        )
    d = np.linspace(_GRID_LOW, inp.N, _GRID_POINTS)
    return int(d[np.argmin(storage_ratio(inp, d))])


def _exact_optimum(inp: PlanInput) -> int:
    # Within a block of constant K = floor(N/d) + 1, R is increasing in d,
    # so each block's minimum sits at its left endpoint; the block left
    # endpoints are enumerable in O(sqrt(N)). argmin takes the first, so
    # the smallest d wins a tie.
    left = [1]
    while (d := inp.N // (inp.N // left[-1]) + 1) <= inp.N:
        left.append(d)
    d = np.array(left)
    return int(d[np.argmin(storage_ratio(inp, d))])


def optimal_queue_length(inp: PlanInput) -> dict:
    """The plan document at the queue length minimizing R, by `inp.mode`.

    "grid" evaluates R on a 100-point linear grid over [1000, N]
    (fractional d scored with a real-valued floor) and truncates the
    argmin to an integer; "exact" returns the smallest integer d
    attaining the global minimum. Reported figures are always recomputed
    at the returned integer d.
    """
    if inp.mode == "grid":
        return memory_report(inp, _grid_optimum(inp))
    return memory_report(inp, _exact_optimum(inp))
