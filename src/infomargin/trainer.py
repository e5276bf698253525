"""Desk-scale training demo: does information-guided margining reduce bias?

Synthetic classes are isotropic Gaussians with per-class spread sigma_c,
so intra-class diversity (and with it the measured information amount) is
controlled directly. A linear cosine classifier is trained under one of
three losses — plain cross-entropy, the zero-margin cosine loss, or the
information-guided margin loss — while every training batch streams
through the bounded queue as one array; at each epoch end the merged
statistics refresh the information amounts, which set the margins for the
next epoch (epoch 1 runs margin-free, since no amounts exist yet). One
classifier serves the whole run: each SGD step updates its weights in
place, and the epoch-end evaluation reads the same weights.

Each epoch reports the bias diagnostics: per-class test accuracy, its
population variance, and Pearson correlations of accuracy against measured
information and against class instance counts. Pearson values are None
when either side has zero variance (e.g. the count correlation on a
balanced benchmark).
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, TrainingDivergedError
from .info import InfoAmountTable, info_table_to_json, information_amounts_from_stats
from .loss import CosineClassifier, MarginMatrix, build_margins, ce_batch, igam_batch, \
    margins_to_json, normalize_info, INFO_VARIANTS, MARGIN_VARIANTS, MARGIN_DIRECTIONS, \
    IBAR_MODES
from .stats import EpochAccumulator

__all__ = [
    "SyntheticSpec",
    "TrainConfig",
    "Dataset",
    "EpochReport",
    "TrainResult",
    "LOSSES",
    "generate_dataset",
    "train",
    "pearson",
    "bias_variance",
    "train_result_to_json",
    "run_report_to_json",
]

LOSSES = ("ce", "normface", "igam")


def _as_counts(value, C: int, what: str) -> tuple[int, ...]:
    if isinstance(value, (int, np.integer)):
        counts = (int(value),) * C
    else:
        counts = tuple(int(v) for v in value)
        if len(counts) != C:
            raise InputError(f"{what} must have one entry per class ({C}), got {len(counts)}")
    if any(c < 1 for c in counts):
        raise InputError(f"{what} entries must be >= 1, got {counts}")
    return counts


@dataclass(frozen=True)
class SyntheticSpec:
    """Synthetic benchmark layout.

    `n_train`/`n_test` may be a single per-class count or a per-class
    sequence; `spreads` gives each class's isotropic sigma_c. Class means
    are unit vectors drawn deterministically from (seed, class) streams
    and scaled by `mean_separation`.
    """

    C: int
    p: int
    n_train: int | tuple[int, ...]
    n_test: int | tuple[int, ...]
    spreads: tuple[float, ...]
    mean_separation: float
    seed: int = 0

    def __post_init__(self):
        if self.C < 2:
            raise InputError(f"C must be >= 2, got {self.C}")
        if self.p < 1:
            raise InputError(f"p must be >= 1, got {self.p}")
        object.__setattr__(self, "n_train", _as_counts(self.n_train, self.C, "n_train"))
        object.__setattr__(self, "n_test", _as_counts(self.n_test, self.C, "n_test"))
        spreads = tuple(float(s) for s in self.spreads)
        if len(spreads) != self.C:
            raise InputError(f"spreads must have {self.C} entries, got {len(spreads)}")
        if any(not np.isfinite(s) or s <= 0 for s in spreads):
            raise InputError(f"spreads must be finite and > 0, got {spreads}")
        object.__setattr__(self, "spreads", spreads)
        if not np.isfinite(self.mean_separation) or self.mean_separation < 0:
            raise InputError(f"mean_separation must be finite >= 0, got {self.mean_separation}")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class TrainConfig:
    """Optimization and refresh settings for one training run."""

    loss: str = "igam"
    epochs: int = 30
    lr: float = 0.1
    momentum: float = 0.9
    s: float = 30.0
    queue_len: int = 50000
    info_variant: str = "double-exp"
    margin_variant: str = "clamped"
    margin_direction: str = "target"
    ibar_mode: str = "sum"
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise InputError(f"loss must be one of {LOSSES}, got {self.loss!r}")
        if self.epochs < 1:
            raise InputError(f"epochs must be >= 1, got {self.epochs}")
        if not np.isfinite(self.lr) or self.lr <= 0:
            raise InputError(f"lr must be finite and > 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise InputError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not np.isfinite(self.s) or self.s <= 0:
            raise InputError(f"s must be finite and > 0, got {self.s}")
        if self.queue_len < 1:
            raise InputError(f"queue_len must be >= 1, got {self.queue_len}")
        if self.info_variant not in INFO_VARIANTS:
            raise InputError(f"info_variant must be one of {INFO_VARIANTS}")
        if self.margin_variant not in MARGIN_VARIANTS:
            raise InputError(f"margin_variant must be one of {MARGIN_VARIANTS}")
        if self.margin_direction not in MARGIN_DIRECTIONS:
            raise InputError(f"margin_direction must be one of {MARGIN_DIRECTIONS}")
        if self.ibar_mode not in IBAR_MODES:
            raise InputError(f"ibar_mode must be one of {IBAR_MODES}")
        if self.batch_size < 1:
            raise InputError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")


@dataclass
class Dataset:
    """Generated benchmark data, concatenated class-by-class."""

    train_X: np.ndarray
    train_y: np.ndarray
    test_X: np.ndarray
    test_y: np.ndarray
    train_counts: np.ndarray
    test_counts: np.ndarray
    spec: SyntheticSpec


@dataclass(frozen=True)
class EpochReport:
    """Diagnostics for one epoch; Pearson fields are None when degenerate."""

    epoch: int
    per_class_accuracy: np.ndarray
    info_amounts: np.ndarray
    bias_variance: float
    pearson_info_acc: float | None
    pearson_count_acc: float | None
    loss_mean: float


@dataclass
class TrainResult:
    """Everything a run produced: per-epoch reports plus final state."""

    reports: list[EpochReport]
    final_margins: MarginMatrix
    final_info: InfoAmountTable
    weights: np.ndarray
    config: TrainConfig
    spec: SyntheticSpec


def generate_dataset(spec: SyntheticSpec) -> Dataset:
    """Sample the benchmark. Deterministic per (seed, class), so results do
    not depend on generation order or parallelism."""
    train_blocks, test_blocks, train_labels, test_labels = [], [], [], []
    for c in range(spec.C):
        if spec.n_train[c] < spec.p:
            warnings.warn(
                f"class {c}: n_train={spec.n_train[c]} < p={spec.p}; its covariance "
                "estimate will be rank-deficient",
                RuntimeWarning,
                stacklevel=2,
            )
        rng = np.random.default_rng([spec.seed, c])
        direction = rng.standard_normal(spec.p)
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            raise InputError(f"class {c}: degenerate zero direction draw")
        mean = direction / norm * spec.mean_separation
        sigma = spec.spreads[c]
        train_blocks.append(mean + sigma * rng.standard_normal((spec.n_train[c], spec.p)))
        test_blocks.append(mean + sigma * rng.standard_normal((spec.n_test[c], spec.p)))
        train_labels.append(np.full(spec.n_train[c], c, dtype=np.int64))
        test_labels.append(np.full(spec.n_test[c], c, dtype=np.int64))
    return Dataset(
        train_X=np.concatenate(train_blocks),
        train_y=np.concatenate(train_labels),
        test_X=np.concatenate(test_blocks),
        test_y=np.concatenate(test_labels),
        train_counts=np.asarray(spec.n_train, dtype=np.int64),
        test_counts=np.asarray(spec.n_test, dtype=np.int64),
        spec=spec,
    )


def pearson(xs, ys) -> float:
    """Sample Pearson correlation; errors on degenerate (zero-variance) input."""
    xs = np.asarray(xs, dtype=np.float64).reshape(-1)
    ys = np.asarray(ys, dtype=np.float64).reshape(-1)
    if xs.shape != ys.shape:
        raise InputError(f"length mismatch: {xs.shape[0]} vs {ys.shape[0]}")
    if xs.size < 2:
        raise InputError(f"need at least two points, got {xs.size}")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise InputError("non-finite values")
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise InputError("zero variance makes the correlation undefined")
    r = float(dx @ dy) / np.sqrt(sxx * syy)
    return float(np.clip(r, -1.0, 1.0))


def bias_variance(per_class_accuracy) -> float:
    """Population variance of per-class accuracy (the bias metric)."""
    acc = np.asarray(per_class_accuracy, dtype=np.float64).reshape(-1)
    if acc.size < 2:
        raise InputError(f"need at least two classes, got {acc.size}")
    return float(np.var(acc))


def _maybe_pearson(xs, ys) -> float | None:
    try:
        return pearson(xs, ys)
    except InputError:
        return None


def _per_class_accuracy(preds: np.ndarray, labels: np.ndarray, C: int) -> np.ndarray:
    acc = np.empty(C, dtype=np.float64)
    for c in range(C):
        mask = labels == c
        acc[c] = float(np.mean(preds[mask] == c))
    return acc


def train(
    spec: SyntheticSpec,
    config: TrainConfig,
    dataset: Dataset | None = None,
) -> TrainResult:
    """Run one training configuration end to end.

    Each SGD batch is added to the accumulator as one `(batch_size, p)`
    array, so every training record is counted once per epoch and each
    epoch's merged statistics cover exactly the training set (acceptance
    criterion 7 compares them with the pooled records' amounts).

    Raises TrainingDivergedError if the loss or weights go non-finite.
    """
    if dataset is None:
        dataset = generate_dataset(spec)
    elif dataset.spec != spec:
        raise InputError("dataset was generated from a different spec")
    C, p = spec.C, spec.p
    n_total = dataset.train_X.shape[0]

    rng_init = np.random.default_rng([config.seed, 101])
    clf = CosineClassifier(rng_init.standard_normal((C, p)) / np.sqrt(p), scale=config.s)
    W = clf.weights
    velocity = np.zeros_like(W)
    margins = MarginMatrix.zeros(C)
    amounts: dict[int, float] = {}
    table = InfoAmountTable(amounts={}, epoch=0)
    accumulator = EpochAccumulator(capacity=config.queue_len, p=p)

    reports: list[EpochReport] = []
    for epoch in range(1, config.epochs + 1):
        order = np.random.default_rng([config.seed, 202, epoch]).permutation(n_total)
        loss_total = 0.0
        for start in range(0, n_total, config.batch_size):
            idx = order[start:start + config.batch_size]
            Xb = dataset.train_X[idx]
            yb = dataset.train_y[idx]
            if config.loss == "ce":
                out = ce_batch(clf, Xb, yb)
            else:
                out = igam_batch(clf, Xb, yb, margins)
            if not np.all(np.isfinite(out.losses)):
                raise TrainingDivergedError(
                    f"non-finite loss in epoch {epoch} (loss={config.loss}, lr={config.lr})"
                )
            loss_total += float(out.losses.sum())
            # In place, so `clf` sees the step; the same operations as
            # v = momentum * v + g; W = W - lr * v.
            velocity *= config.momentum
            velocity += out.grad_weights
            W -= config.lr * velocity
            if not np.all(np.isfinite(W)):
                raise TrainingDivergedError(
                    f"non-finite weights in epoch {epoch} (loss={config.loss}, lr={config.lr})"
                )
            accumulator.add(Xb, yb)

        stats = accumulator.finalize()
        refreshed = information_amounts_from_stats(stats, epoch=epoch)
        # Categories with no records this epoch keep their previous amount
        # (or 0 before any measurement exists); present ones are refreshed.
        amounts = {c: amounts.get(c, 0.0) for c in range(C)}
        amounts.update(refreshed.amounts)
        table = InfoAmountTable(amounts=dict(amounts), epoch=epoch)
        if config.loss == "igam":
            norm = normalize_info(table, variant=config.info_variant, ibar=config.ibar_mode)
            margins = build_margins(norm, variant=config.margin_variant,
                                    direction=config.margin_direction)

        if config.loss == "ce":
            preds = np.argmax(dataset.test_X @ W.T, axis=1)
        else:
            preds = clf.predict(dataset.test_X)
        acc = _per_class_accuracy(preds, dataset.test_y, C)
        info_vec = np.array([amounts[c] for c in range(C)], dtype=np.float64)
        reports.append(EpochReport(
            epoch=epoch,
            per_class_accuracy=acc,
            info_amounts=info_vec,
            bias_variance=bias_variance(acc),
            pearson_info_acc=_maybe_pearson(info_vec, acc),
            pearson_count_acc=_maybe_pearson(dataset.train_counts, acc),
            loss_mean=loss_total / n_total,
        ))

    return TrainResult(
        reports=reports,
        final_margins=margins,
        final_info=table,
        weights=W,
        config=config,
        spec=spec,
    )


def _report_to_json(report: EpochReport) -> dict:
    return {
        "epoch": report.epoch,
        "per_class_accuracy": [float(a) for a in report.per_class_accuracy],
        "info_amounts": [float(v) for v in report.info_amounts],
        "bias_variance": report.bias_variance,
        "pearson_info_acc": report.pearson_info_acc,
        "pearson_count_acc": report.pearson_count_acc,
        "loss_mean": report.loss_mean,
    }


def train_result_to_json(result: TrainResult) -> dict:
    return {
        "train": asdict(result.config),
        "epochs": [_report_to_json(r) for r in result.reports],
        "final_margins": margins_to_json(result.final_margins),
        "final_info": info_table_to_json(result.final_info),
    }


def run_report_to_json(spec: SyntheticSpec, results: Sequence[TrainResult]) -> dict:
    """Full `toy run` report: dataset echo plus one entry per trained loss."""
    return {
        "dataset": asdict(spec),
        "runs": [train_result_to_json(res) for res in results],
    }
