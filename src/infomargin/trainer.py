"""Desk-scale training demo: does information-guided margining reduce bias?

Synthetic classes are isotropic Gaussians with per-class spread sigma_c,
so intra-class diversity (and with it the measured information amount)
is controlled directly. A linear cosine classifier is trained under one
of three losses: plain cross-entropy, NormFace (the cosine loss with no
margins), or the information-guided margin loss. The dataset is checked
and its feature rows are normalized once per run, so each SGD step
normalizes only the weights and runs the loss kernel. The features are
fixed, so the information amounts are computed once per run: after epoch
1's steps, its rows, in SGD order, stream through the bounded queue as one
array, which cuts the same windows as adding them batch by batch, and the
merged statistics give the amounts that every epoch reports and the
margins of every later epoch (epoch 1 runs margin-free, since no amounts
exist yet). A later epoch's queue would hold the same rows in another
order and give the same amounts up to round-off. One weight matrix serves
the whole run: each SGD step updates it in place, and the epoch-end
evaluation reads the same weights.

Each epoch reports the bias diagnostics: per-class test accuracy, its
population variance, and Pearson correlations of accuracy against measured
information and against the log of each class's training count. Pearson
values are None when either side has zero variance (e.g. the count
correlation on a balanced benchmark).

A run's amounts are each report's `info_amounts`, the same in every epoch;
its `final_margins` are the margins built from them, or None for ce and
normface, which build none.

The module also holds a `toy run`'s three documents: the run config it
reads (`parse_run_config`), the report it writes (`run_report_to_json`) and
that report's `toy report` summary (`summarize_run_report`).
"""

from __future__ import annotations

import warnings
from dataclasses import MISSING, asdict, dataclass, fields
from functools import partial
from typing import Sequence

import numpy as np

from .errors import InputError, NumericalError, TrainingDivergedError, as_batch, as_choice, \
    as_float, as_int, as_number_array, as_object
from .info import information_amounts_from_stats
from .loss import MarginMatrix, build_margins, margins_to_json, normalize_info, \
    MARGIN_DIRECTIONS, IBAR_MODES, _ce_kernel, _cosine_kernel, _unit_rows
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
    "parse_run_config",
    "run_report_to_json",
    "summarize_run_report",
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
            margin_direction=as_choice(self.margin_direction, "margin_direction",
                                       MARGIN_DIRECTIONS),
            ibar_mode=as_choice(self.ibar_mode, "ibar_mode", IBAR_MODES),
            batch_size=as_int(self.batch_size, "batch_size", minimum=1),
            seed=as_int(self.seed, "seed", minimum=0),
        ).items():
            object.__setattr__(self, name, value)


def _reject_unknown(section: dict, allowed, path: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise InputError(f"{path}.{unknown[0]}: unknown key")


def _section(value, path: str, cls) -> dict:
    """A section's keys over the defaults of `cls`'s fields."""
    keys = {f.name: f.default for f in fields(cls)}
    section = {k: v for k, v in keys.items() if v is not MISSING}
    section.update(as_object(value, path))
    _reject_unknown(section, keys, path)
    for key in keys:
        if key not in section:
            raise InputError(f"{path}.{key}: missing required key")
    return section


def _build(path: str, cls, **values):
    """`cls(**values)`, its InputError prefixed with the section path."""
    try:
        return cls(**values)
    except InputError as exc:
        raise InputError(f"{path}.{exc}") from None


def parse_run_config(doc) -> tuple[SyntheticSpec, tuple[TrainConfig, ...]]:
    """A loaded run config, whose `dataset` and `train` sections hold the
    fields of SyntheticSpec and TrainConfig, as `(spec, configs)`: one config
    per loss. Only the structure is checked here: objects, no unknown or
    missing keys (named by field path, so typos fail loudly), and `train.loss`
    as one name or a list of distinct names. The dataclasses check every
    value; their errors come back prefixed with the section, as in
    `train.epochs must be >= 1, got 0`."""
    root = as_object(doc, "config")
    _reject_unknown(root, ("dataset", "train"), "config")
    if "dataset" not in root:
        raise InputError("config.dataset: missing required section")
    spec = _build("dataset", SyntheticSpec, **_section(root["dataset"], "dataset", SyntheticSpec))

    train = _section(root.get("train", {}), "train", TrainConfig)
    loss = train.pop("loss")
    names = loss if isinstance(loss, list) else [loss]
    if not names or not all(isinstance(name, str) for name in names):
        raise InputError(f"train.loss: expected a loss name or list of names, got {loss!r}")
    if len(set(names)) != len(names):
        raise InputError("train.loss: duplicate loss names")
    configs = tuple(_build("train", TrainConfig, loss=name, **train) for name in names)
    return spec, configs


@dataclass
class Dataset:
    """Generated benchmark data, concatenated class-by-class."""

    train_X: np.ndarray
    train_y: np.ndarray
    test_X: np.ndarray
    test_y: np.ndarray
    spec: SyntheticSpec


@dataclass(frozen=True)
class EpochReport:
    """Diagnostics for one epoch. `pearson_count_acc` is taken against
    log(n_train); Pearson fields are None when degenerate."""

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
    final_margins: MarginMatrix | None
    weights: np.ndarray
    config: TrainConfig


def generate_dataset(spec: SyntheticSpec) -> Dataset:
    """Sample the benchmark. Deterministic per (seed, class), so results do
    not depend on generation order or parallelism.

    Each class's draws are written straight into its rows of the final
    arrays, so the features are held once, with no per-class blocks."""
    # n centred rows span at most n - 1 dimensions, so n_train = p is deficient too.
    deficient = [f"class {c}: n_train={n} <= p={spec.p}"
                 for c, n in enumerate(spec.n_train) if n <= spec.p]
    if deficient:
        more = f"; and {len(deficient) - 3} more" if len(deficient) > 3 else ""
        warnings.warn(f"{len(deficient)} of {spec.C} classes will have a rank-deficient "
                      f"covariance estimate: {'; '.join(deficient[:3])}{more}",
                      RuntimeWarning, stacklevel=2)
    train_X = np.empty((sum(spec.n_train), spec.p))
    test_X = np.empty((sum(spec.n_test), spec.p))
    # Each class's rows, as views of the two arrays.
    blocks = zip(np.split(train_X, np.cumsum(spec.n_train)[:-1]),
                 np.split(test_X, np.cumsum(spec.n_test)[:-1]))
    for c, class_blocks in enumerate(blocks):
        rng = np.random.default_rng([spec.seed, c])
        direction = rng.standard_normal(spec.p)
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            raise InputError(f"class {c}: degenerate zero direction draw")
        mean = direction / norm * spec.mean_separation
        sigma = spec.spreads[c]
        # In place, the same bits as mean + sigma * rng.standard_normal((n, p)).
        for block in class_blocks:
            rng.standard_normal(out=block)
            block *= sigma
            block += mean
    classes = np.arange(spec.C, dtype=np.int64)
    return Dataset(
        train_X=train_X,
        train_y=np.repeat(classes, spec.n_train),
        test_X=test_X,
        test_y=np.repeat(classes, spec.n_test),
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


def _diverged(what: str, epoch: int, config: TrainConfig) -> TrainingDivergedError:
    return TrainingDivergedError(f"{what} in epoch {epoch} (loss={config.loss}, lr={config.lr})")


def train(dataset: Dataset, config: TrainConfig) -> TrainResult:
    """Train one configuration on `dataset`, whose `spec` gives C and p.

    The dataset is checked once, before any SGD step: finite features,
    labels in [0, C), train and test rows for every class, and for the
    cosine losses no zero-norm feature row. Errors name the dataset row or
    the class. The cosine losses normalize the train and test rows once per
    run; each step gathers its unit rows, normalizes the weights and runs
    the loss kernel, with the same bits as `igam_batch` on the raw rows
    (with margins None for normface).

    After epoch 1's steps its rows are added to the accumulator as one
    array in SGD order. Since the features do not depend on the weights,
    this cuts the same windows as adding each batch after its step, and
    every training record is counted once, so the merged statistics cover
    exactly the training set (acceptance criterion 7 compares them with the
    pooled records' amounts). For the same reason every epoch's statistics
    would be these, so the information amounts, and for igam the margins
    of epochs 2 onwards, are computed once from them, and every epoch's
    report carries the same `info_amounts`.

    Raises TrainingDivergedError if the loss or weights go non-finite or a
    weight row's norm overflows.
    """
    C, p = dataset.spec.C, dataset.spec.p
    # The run reads the dataset's arrays in place, so its features must
    # already be float64.
    counts = {}
    for part in ("train", "test"):
        X = getattr(dataset, f"{part}_X")
        if X.dtype != np.float64:
            raise InputError(f"{part}_X must be a float64 array, got dtype {X.dtype}")
        _, y = as_batch(X, getattr(dataset, f"{part}_y"), f"{part} data", p=p, C=C)
        counts[part] = np.bincount(y, minlength=C)
        if not counts[part].all():
            raise InputError(f"class {np.argmin(counts[part])} has no {part} rows")
    n_total = dataset.train_X.shape[0]
    cosine = config.loss != "ce"
    if cosine:
        train_U, _ = _unit_rows(dataset.train_X, "train feature")
        test_U, _ = _unit_rows(dataset.test_X, "test feature")

    rng_init = np.random.default_rng([config.seed, 101])
    W = rng_init.standard_normal((C, p)) / np.sqrt(p)
    velocity = np.zeros_like(W)
    # None, read by the kernel as no margins, until epoch 1's refresh builds them.
    margins = None
    table = None

    reports: list[EpochReport] = []
    for epoch in range(1, config.epochs + 1):
        order = np.random.default_rng([config.seed, 202, epoch]).permutation(n_total)
        y_epoch = dataset.train_y[order]
        # The rows the kernel reads: unit rows for the cosine losses, raw rows for CE.
        rows = (train_U if cosine else dataset.train_X)[order]
        loss_total = 0.0
        for start in range(0, n_total, config.batch_size):
            stop = start + config.batch_size
            yb = y_epoch[start:stop]
            if cosine:
                # A try costs nothing on the path that does not raise.
                try:
                    Wn, wnorms = _unit_rows(W, "weight")
                except NumericalError as exc:  # an overflowing weight norm
                    raise _diverged(str(exc), epoch, config) from exc
                losses, grad_W = _cosine_kernel(
                    rows[start:stop], Wn, wnorms, yb, margins, config.s)[:2]
            else:
                losses, grad_W = _ce_kernel(rows[start:stop], W, yb)[:2]
            if not np.isfinite(losses).all():
                raise _diverged("non-finite loss", epoch, config)
            loss_total += float(losses.sum())
            # In place, the same operations as v = momentum * v + g;
            # W = W - lr * v.
            velocity *= config.momentum
            velocity += grad_W
            W -= config.lr * velocity
            if not np.isfinite(W).all():
                raise _diverged("non-finite weights", epoch, config)

        if table is None:
            # Fixed features: a later epoch would repeat these up to round-off.
            accumulator = EpochAccumulator(capacity=config.queue_len, p=p)
            accumulator.add(dataset.train_X[order] if cosine else rows, y_epoch)
            # Every class has training rows, so the table covers ids 0..C-1.
            table = information_amounts_from_stats(accumulator.finalize())
            if config.loss == "igam":
                margins = build_margins(normalize_info(table, ibar=config.ibar_mode),
                                        direction=config.margin_direction)

        if cosine:
            try:
                Wn, _ = _unit_rows(W, "weight")
            except NumericalError as exc:
                raise _diverged(str(exc), epoch, config) from exc
            preds = np.argmax(np.clip(test_U @ Wn.T, -1.0, 1.0), axis=1)
        else:
            preds = np.argmax(dataset.test_X @ W.T, axis=1)
        hits = np.bincount(dataset.test_y, weights=preds == dataset.test_y, minlength=C)
        acc = hits / counts["test"]
        reports.append(EpochReport(
            epoch=epoch,
            per_class_accuracy=acc,
            info_amounts=table.amounts,
            bias_variance=bias_variance(acc),
            pearson_info_acc=_maybe_pearson(table.amounts, acc),
            pearson_count_acc=_maybe_pearson(np.log(counts["train"]), acc),
            loss_mean=loss_total / n_total,
        ))

    return TrainResult(reports=reports, final_margins=margins, weights=W, config=config)


def run_report_to_json(spec: SyntheticSpec, results: Sequence[TrainResult]) -> dict:
    """Full `toy run` report: the dataset echo, then per trained loss its
    train section, each epoch's diagnostics (arrays as lists) and its final
    margins (None for ce and normface)."""
    runs = []
    for result in results:
        epochs = []
        for report in result.reports:
            values = {f.name: getattr(report, f.name) for f in fields(report)}
            epochs.append({k: v.tolist() if isinstance(v, np.ndarray) else v
                           for k, v in values.items()})
        margins = result.final_margins
        runs.append({
            "train": asdict(result.config),
            "epochs": epochs,
            "final_margins": None if margins is None else margins_to_json(margins),
        })
    return {"dataset": asdict(spec), "runs": runs}


def summarize_run_report(doc, source: str) -> dict:
    """The `toy report` summary of a loaded run report: the dataset echo and,
    per run, its loss, its final epoch's diagnostics and the mean and
    smallest class accuracy. The echoes are checked as a run config's
    sections are (`dataset.C: ...`, `runs[i].train.loss: ...`), and the
    dataset echo is copied as written, None when absent. Other errors name
    `source`, or a malformed run as `runs[i]: ...`."""
    if not isinstance(doc, dict) or not isinstance(doc.get("runs"), list):
        raise InputError(f"{source}: expected a run report with a 'runs' list")
    dataset = doc.get("dataset")
    if dataset is not None:
        _build("dataset", SyntheticSpec, **_section(dataset, "dataset", SyntheticSpec))
    summaries = []
    for index, run in enumerate(doc["runs"]):
        try:
            path = f"runs[{index}].train"
            loss = _build(path, TrainConfig, **_section(run["train"], path, TrainConfig)).loss
            epochs = run["epochs"]
            final = epochs[-1]
            acc = as_number_array(final["per_class_accuracy"],
                                  f"runs[{index}]: final per_class_accuracy")
            if not acc.size:
                raise InputError(f"runs[{index}]: final per_class_accuracy must be a "
                                 f"nonempty list, got shape {acc.shape}")
            # The copied fields are checked too, as `canonical_dumps` refuses inf.
            scalars = {key: None if key.startswith("pearson_") and final[key] is None
                       else as_float(final[key], f"runs[{index}]: final {key}")
                       for key in ("bias_variance", "pearson_info_acc", "pearson_count_acc",
                                   "loss_mean")}
            summaries.append({
                "loss": loss,
                "epochs": len(epochs),
                **scalars,
                "mean_accuracy": float(np.mean(acc)),
                "min_class_accuracy": float(np.min(acc)),
            })
        except (KeyError, IndexError, TypeError) as exc:
            raise InputError(f"runs[{index}]: malformed run report: {exc}") from exc
    return {"dataset": dataset, "runs": summaries}
