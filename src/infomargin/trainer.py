"""Desk-scale training demo: does information-guided margining reduce bias?

Synthetic classes are isotropic Gaussians with per-class spread sigma_c,
so intra-class diversity (and with it the measured information amount) is
controlled directly. A linear cosine classifier is trained under one of
three losses — plain cross-entropy, the zero-margin cosine loss, or the
information-guided margin loss. The dataset is checked and its feature
rows are normalized once per run, so each SGD step normalizes only the
weights and runs the loss kernel. Each epoch's rows, in SGD order, stream
through the bounded queue as one array, which cuts the same windows as
adding them batch by batch; at each epoch end the merged statistics
refresh the information amounts, which set the margins for the next epoch
(epoch 1 runs margin-free, since no amounts exist yet). One weight matrix
serves the whole run: each SGD step updates it in place, and the
epoch-end evaluation reads the same weights.

Each epoch reports the bias diagnostics: per-class test accuracy, its
population variance, and Pearson correlations of accuracy against measured
information and against class instance counts. Pearson values are None
when either side has zero variance (e.g. the count correlation on a
balanced benchmark).
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import Sequence

import numpy as np

from .errors import InputError, TrainingDivergedError, as_choice, as_float, as_int
from .info import InfoAmountTable, info_table_to_json, information_amounts_from_stats
from .loss import MarginMatrix, build_margins, margins_to_json, normalize_info, \
    INFO_VARIANTS, MARGIN_VARIANTS, MARGIN_DIRECTIONS, IBAR_MODES, _ce_kernel, \
    _cosine_kernel, _unit_rows
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


def _as_bounded(value, path: str, rule: str) -> float:
    """`value` as a finite float obeying `rule`: "> 0", ">= 0" or "in [0, 1)"."""
    out = as_float(value, path)
    if not {"> 0": out > 0, ">= 0": out >= 0, "in [0, 1)": 0 <= out < 1}[rule]:
        raise InputError(f"{path} must be {rule}, got {out}")
    return out


def _per_class(value, C: int, path: str, check, broadcast: bool = False) -> tuple:
    """`check` of each of C entries; with `broadcast`, one value serves all C."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if broadcast and not isinstance(value, (list, tuple)):
        return (check(value, path),) * C
    if not isinstance(value, (list, tuple)) or not value:
        raise InputError(f"{path}: expected a nonempty list, got {value!r}")
    if len(value) != C:
        raise InputError(f"{path} must have one entry per class ({C}), got {len(value)}")
    return tuple(check(v, f"{path}[{i}]") for i, v in enumerate(value))


@dataclass(frozen=True)
class SyntheticSpec:
    """Synthetic benchmark layout.

    `n_train`/`n_test` may be a single per-class count or a per-class
    sequence; `spreads` gives each class's isotropic sigma_c. Class means
    are unit vectors drawn deterministically from (seed, class) streams
    and scaled by `mean_separation`.

    Every field is type- and range-checked here, for config files and library
    callers alike, and stored as Python ints, floats and tuples.
    """

    C: int
    p: int
    n_train: int | tuple[int, ...]
    n_test: int | tuple[int, ...]
    spreads: tuple[float, ...]
    mean_separation: float
    seed: int = 0

    def __post_init__(self):
        C = as_int(self.C, "C", minimum=2)
        count = partial(as_int, minimum=1)
        for name, value in dict(
            C=C,
            p=as_int(self.p, "p", minimum=1),
            n_train=_per_class(self.n_train, C, "n_train", count, broadcast=True),
            n_test=_per_class(self.n_test, C, "n_test", count, broadcast=True),
            spreads=_per_class(self.spreads, C, "spreads", partial(_as_bounded, rule="> 0")),
            mean_separation=_as_bounded(self.mean_separation, "mean_separation", ">= 0"),
            seed=as_int(self.seed, "seed", minimum=0),
        ).items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class TrainConfig:
    """Optimization and refresh settings for one run, checked as in SyntheticSpec."""

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
        for name, value in dict(
            loss=as_choice(self.loss, "loss", LOSSES),
            epochs=as_int(self.epochs, "epochs", minimum=1),
            lr=_as_bounded(self.lr, "lr", "> 0"),
            momentum=_as_bounded(self.momentum, "momentum", "in [0, 1)"),
            s=_as_bounded(self.s, "s", "> 0"),
            queue_len=as_int(self.queue_len, "queue_len", minimum=1),
            info_variant=as_choice(self.info_variant, "info_variant", INFO_VARIANTS),
            margin_variant=as_choice(self.margin_variant, "margin_variant", MARGIN_VARIANTS),
            margin_direction=as_choice(self.margin_direction, "margin_direction",
                                       MARGIN_DIRECTIONS),
            ibar_mode=as_choice(self.ibar_mode, "ibar_mode", IBAR_MODES),
            batch_size=as_int(self.batch_size, "batch_size", minimum=1),
            seed=as_int(self.seed, "seed", minimum=0),
        ).items():
            object.__setattr__(self, name, value)


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
    deficient = [f"class {c}: n_train={n} < p={spec.p}"
                 for c, n in enumerate(spec.n_train) if n < spec.p]
    if deficient:
        more = f"; and {len(deficient) - 3} more" if len(deficient) > 3 else ""
        warnings.warn(f"{len(deficient)} of {spec.C} classes will have a rank-deficient "
                      f"covariance estimate: {'; '.join(deficient[:3])}{more}",
                      RuntimeWarning, stacklevel=2)
    train_blocks, test_blocks, train_labels, test_labels = [], [], [], []
    for c in range(spec.C):
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


def _check_dataset(dataset: Dataset, C: int, p: int) -> None:
    """Shapes, finite features and labels in [0, C), naming the first bad row."""
    for part in ("train", "test"):
        X = getattr(dataset, f"{part}_X")
        y = getattr(dataset, f"{part}_y")
        if X.ndim != 2 or X.shape[1] != p or X.dtype != np.float64:
            raise InputError(f"{part}_X must be a float64 (n, {p}) array")
        if y.shape != (X.shape[0],) or y.dtype.kind not in "iu":
            raise InputError(f"{part}_y must be an integer array of {X.shape[0]} labels")
        # min and max propagate NaN and expose +-inf without an (n, p) temporary.
        if X.size and not (np.isfinite(X.min()) and np.isfinite(X.max())):
            row = int(np.argmin(np.isfinite(X).all(axis=1)))
            raise InputError(f"non-finite {part} feature at row {row}")
        bad = (y < 0) | (y >= C)
        if bad.any():
            row = int(np.argmax(bad))
            raise InputError(f"{part} label {y[row]} at row {row} is outside [0, {C})")


def train(
    spec: SyntheticSpec,
    config: TrainConfig,
    dataset: Dataset | None = None,
) -> TrainResult:
    """Run one training configuration end to end.

    The dataset is checked once, before any SGD step: finite features,
    labels in [0, C), and for the cosine losses no zero-norm feature row.
    Errors name the dataset row. The cosine losses normalize the train and
    test rows once per run; each step gathers its unit rows, normalizes the
    weights and runs the loss kernel, with the same bits as `igam_batch`
    and `normface_batch` on the raw rows.

    Each epoch's rows are added to the accumulator as one array in SGD
    order. Since the features do not depend on the weights, this cuts the
    same windows as adding each batch after its step, and every training
    record is counted once per epoch, so each epoch's merged statistics
    cover exactly the training set (acceptance criterion 7 compares them
    with the pooled records' amounts).

    Raises TrainingDivergedError if the loss or weights go non-finite.
    """
    if dataset is None:
        dataset = generate_dataset(spec)
    elif dataset.spec != spec:
        raise InputError("dataset was generated from a different spec")
    C, p = spec.C, spec.p
    _check_dataset(dataset, C, p)
    n_total = dataset.train_X.shape[0]
    cosine = config.loss != "ce"
    if cosine:
        train_U, _ = _unit_rows(dataset.train_X, "train feature")
        test_U, _ = _unit_rows(dataset.test_X, "test feature")

    rng_init = np.random.default_rng([config.seed, 101])
    W = rng_init.standard_normal((C, p)) / np.sqrt(p)
    velocity = np.zeros_like(W)
    # None, read by the kernel as no margins, until a refresh builds them.
    margins = None
    info = np.zeros(C, dtype=np.float64)
    accumulator = EpochAccumulator(capacity=config.queue_len, p=p)
    test_counts = np.bincount(dataset.test_y, minlength=C)

    reports: list[EpochReport] = []
    for epoch in range(1, config.epochs + 1):
        order = np.random.default_rng([config.seed, 202, epoch]).permutation(n_total)
        X_epoch = dataset.train_X[order]
        y_epoch = dataset.train_y[order]
        if cosine:
            U_epoch = train_U[order]
        loss_total = 0.0
        for start in range(0, n_total, config.batch_size):
            stop = start + config.batch_size
            yb = y_epoch[start:stop]
            if cosine:
                Wn, wnorms = _unit_rows(W, "weight")
                losses, grad_W = _cosine_kernel(
                    U_epoch[start:stop], Wn, wnorms, yb, margins, config.s)[:2]
            else:
                losses, grad_W = _ce_kernel(X_epoch[start:stop], W, yb)[:2]
            if not np.isfinite(losses).all():
                raise TrainingDivergedError(
                    f"non-finite loss in epoch {epoch} (loss={config.loss}, lr={config.lr})"
                )
            loss_total += float(losses.sum())
            # In place, the same operations as v = momentum * v + g;
            # W = W - lr * v.
            velocity *= config.momentum
            velocity += grad_W
            W -= config.lr * velocity
            if not np.isfinite(W).all():
                raise TrainingDivergedError(
                    f"non-finite weights in epoch {epoch} (loss={config.loss}, lr={config.lr})"
                )
        accumulator.add(X_epoch, y_epoch)

        stats = accumulator.finalize()
        refreshed = information_amounts_from_stats(stats, epoch=epoch)
        # Categories with no records this epoch keep their previous amount
        # (or 0 before any measurement exists); present ones are refreshed.
        info[refreshed.ids] = refreshed.amounts
        table = InfoAmountTable(np.arange(C), info, epoch=epoch)
        if config.loss == "igam":
            norm = normalize_info(table, variant=config.info_variant, ibar=config.ibar_mode)
            margins = build_margins(norm, variant=config.margin_variant,
                                    direction=config.margin_direction)

        if cosine:
            Wn, _ = _unit_rows(W, "weight")
            preds = np.argmax(np.clip(test_U @ Wn.T, -1.0, 1.0), axis=1)
        else:
            preds = np.argmax(dataset.test_X @ W.T, axis=1)
        hits = np.bincount(dataset.test_y, weights=preds == dataset.test_y, minlength=C)
        acc = hits / test_counts
        reports.append(EpochReport(
            epoch=epoch,
            per_class_accuracy=acc,
            info_amounts=table.amounts,
            bias_variance=bias_variance(acc),
            pearson_info_acc=_maybe_pearson(table.amounts, acc),
            pearson_count_acc=_maybe_pearson(dataset.train_counts, acc),
            loss_mean=loss_total / n_total,
        ))

    return TrainResult(
        reports=reports,
        final_margins=MarginMatrix.zeros(C) if margins is None else margins,
        final_info=table,
        weights=W,
        config=config,
        spec=spec,
    )


def _report_to_json(report: EpochReport) -> dict:
    values = {f.name: getattr(report, f.name) for f in fields(report)}
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values.items()}


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
