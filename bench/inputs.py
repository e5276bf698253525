"""Seeded input generation for the benchmark workloads (numpy only).

Set-up writes every input a workload needs into its work directory before
the measured child process starts, so the child's peak RSS and timings
exclude generation. The same seed always yields byte-identical inputs.
Nothing here imports the package under test: the files are written in the
documented on-disk formats directly.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

# stream-stats: N records of dimension P in C categories, streamed through a
# queue of QUEUE_LEN = the grid-optimal d* for the paper's plan sizes. N mod
# QUEUE_LEN = 4211, so the final partial window is exercised.
STREAM_N = 200_000
STREAM_P = 128
STREAM_C = 20
STREAM_QUEUE_LEN = 11_517
STREAM_MARGIN_ARGS = ("--direction", "rival", "--ibar", "mean")
# Plan sizes whose grid optimum is STREAM_QUEUE_LEN and exact optimum 11161.
PLAN_N, PLAN_P, PLAN_C = 55_800, 128, 20

# toy-train: the bundled heterogeneous config, 3 losses x 30 epochs x 5000
# train records per epoch.
TOY_CONFIG = Path("src/infomargin/examples/heterogeneous.json")
TOY_LOSSES = ("ce", "normface", "igam")
TOY_EPOCHS = 30
TOY_TRAIN_RECORDS = 5_000

# wide-epoch: C categories in P dimensions; category counts span m < P to
# m >> P. One operation is one epoch boundary (info refresh + margins)
# followed by WIDE_BATCHES igam batches of WIDE_BATCH samples, cycling
# through a pool of WIDE_POOL distinct batches.
WIDE_C = 100
WIDE_P = 256
WIDE_BATCH = 256
WIDE_POOL = 16
WIDE_BATCHES = 384
WIDE_SCALE = 30.0
WIDE_COUNT_RANGE = (32, 50_000)

BIN_MAGIC = b"IGAMEMB1"
BIN_HEADER = struct.Struct("<8sIQ")


def work_dir(root: Path, workload: str) -> Path:
    """Where a workload's inputs, outputs and child result live."""
    return root / ".bench_work" / workload


def record_dtype(p: int) -> np.dtype:
    return np.dtype([("category", "<u4"), ("vector", "<f4", (p,))])


def write_stream(path: Path, seed: int, N: int = STREAM_N, p: int = STREAM_P,
                 C: int = STREAM_C) -> None:
    """Write the stream-stats embedding file.

    Category sizes follow a seed-permuted geometric profile (12x from the
    smallest to the largest), spreads are log-spaced over 8x, and the
    records arrive in a random interleaved order.
    """
    rng = np.random.default_rng([seed, 11])
    weights = rng.permutation(np.geomspace(1.0, 12.0, C))
    counts = np.floor(weights / weights.sum() * N).astype(np.int64)
    counts[np.argmax(counts)] += N - counts.sum()
    labels = rng.permutation(np.repeat(np.arange(C), counts))
    spreads = rng.permutation(np.geomspace(0.5, 4.0, C))
    centers = 2.0 * rng.standard_normal((C, p))
    records = np.empty(N, dtype=record_dtype(p))
    records["category"] = labels
    chunk = 20_000
    for start in range(0, N, chunk):
        lab = labels[start:start + chunk]
        noise = rng.standard_normal((lab.shape[0], p))
        records["vector"][start:start + chunk] = centers[lab] + spreads[lab, None] * noise
    with open(path, "wb") as fh:
        fh.write(BIN_HEADER.pack(BIN_MAGIC, p, N))
        records.tofile(fh)


def read_stream(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(float32 vectors (N, p), int64 labels) of a stream-stats file."""
    with open(path, "rb") as fh:
        magic, p, n = BIN_HEADER.unpack(fh.read(BIN_HEADER.size))
        if magic != BIN_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        records = np.fromfile(fh, dtype=record_dtype(p), count=n)
    if records.shape[0] != n:
        raise ValueError(f"{path}: {records.shape[0]} records, header says {n}")
    return records["vector"], records["category"].astype(np.int64)


def _wishart_cov(rng: np.random.Generator, m: int, p: int, var: float) -> np.ndarray:
    """Population covariance (divisor m) of m draws from N(0, var * I_p).

    For m > p the scatter matrix is drawn directly from its Wishart law
    (Bartlett decomposition), which costs O(p^3) instead of O(m p^2).
    """
    if m <= p + 1:
        Z = rng.standard_normal((m, p))
        Z -= Z.mean(axis=0)
        S = Z.T @ Z
    else:
        dof = m - 1
        A = np.tril(rng.standard_normal((p, p)), -1)
        A[np.diag_indices(p)] = np.sqrt(rng.chisquare(dof - np.arange(p)))
        S = A @ A.T
    cov = var * S / m
    return 0.5 * (cov + cov.T)


def write_wide(path: Path, seed: int, C: int = WIDE_C, p: int = WIDE_P,
               pool: int = WIDE_POOL, batch: int = WIDE_BATCH) -> None:
    """Write the wide-epoch inputs: per-category statistics and loss batches.

    Counts are log-spaced over WIDE_COUNT_RANGE (so the clip floor
    (1 - sqrt(p/m))^2 lifts many eigenvalues of the small categories) and
    permuted by the seed; variances are log-spaced over 16x. Classifier
    weights share a low-rank component so cosines spread across [-1, 1].
    """
    rng = np.random.default_rng([seed, 13])
    counts = rng.permutation(np.geomspace(*WIDE_COUNT_RANGE, C).astype(np.int64))
    variances = rng.permutation(np.geomspace(0.25, 4.0, C))
    centers = rng.standard_normal((C, p))
    means = np.empty((C, p))
    covs = np.empty((C, p, p))
    for c in range(C):
        covs[c] = _wishart_cov(rng, int(counts[c]), p, float(variances[c]))
        means[c] = centers[c] + np.sqrt(variances[c] / counts[c]) * rng.standard_normal(p)
    basis = rng.standard_normal((8, p))
    weights = rng.standard_normal((C, 8)) @ basis + 0.5 * rng.standard_normal((C, p))
    labels = rng.integers(0, C, size=(pool, batch))
    features = weights[labels] + 1.5 * rng.standard_normal((pool, batch, p))
    np.savez(path, counts=counts, means=means, covs=covs, weights=weights,
             features=features, labels=labels)


def write_inputs(workload: str, work: Path, seed: int) -> None:
    """Create the inputs of one workload under `work`."""
    if workload == "stream-stats":
        write_stream(work / "stream.bin", seed)
    elif workload == "wide-epoch":
        write_wide(work / "wide.npz", seed)
    elif workload != "toy-train":
        raise ValueError(f"unknown workload {workload!r}")
    # toy-train reads the bundled config; its dataset is generated inside the
    # measured `toy run`, as a user of the command pays for it.
