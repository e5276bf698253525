"""Run-configuration files for the toy trainer.

A config is a JSON document with two sections, `dataset` and `train`.
Their keys and defaults are the fields of `SyntheticSpec` and
`TrainConfig`, read off the dataclasses, so the schema is declared once;
only `dataset.seed` and the `train` keys have defaults.

`train.loss` may be a single name or a list, in which case one run per
loss is trained on the shared dataset. Unknown keys anywhere are rejected
with their field path, so typos fail loudly instead of silently falling
back to defaults.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields

from .errors import InputError, as_float, as_int
from .trainer import LOSSES, SyntheticSpec, TrainConfig

__all__ = ["ParsedRunConfig", "parse_run_config"]


def _schema(cls) -> tuple[set[str], dict]:
    """The keys of a config section and the defaults, read off the dataclass."""
    keys = {f.name for f in fields(cls)}
    defaults = {f.name: f.default for f in fields(cls) if f.default is not MISSING}
    return keys, defaults


_DATASET_KEYS, _DATASET_DEFAULTS = _schema(SyntheticSpec)
_TRAIN_KEYS, _TRAIN_DEFAULTS = _schema(TrainConfig)


@dataclass(frozen=True)
class ParsedRunConfig:
    """Validated config: one dataset spec and one TrainConfig per loss."""

    spec: SyntheticSpec
    configs: tuple[TrainConfig, ...]


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _reject_unknown(section: dict, allowed: set[str], path: str):
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise InputError(f"{path}.{unknown[0]}: unknown key")


def _as_counts(value, path: str):
    if isinstance(value, list):
        return tuple(as_int(v, f"{path}[{i}]") for i, v in enumerate(value))
    return as_int(value, path)


def _as_string(value, path: str) -> str:
    if not isinstance(value, str):
        raise InputError(f"{path}: expected a string, got {value!r}")
    return value


def parse_run_config(doc) -> ParsedRunConfig:
    """Validate a loaded JSON document and build the dataset and train configs.

    Raises InputError naming the offending field path on any violation;
    the dataclass invariants (spread positivity, enum membership, ...)
    produce their own messages after the structural checks pass.
    """
    root = _require_mapping(doc, "config")
    _reject_unknown(root, {"dataset", "train"}, "config")
    if "dataset" not in root:
        raise InputError("config.dataset: missing required section")
    dataset = dict(_DATASET_DEFAULTS)
    dataset.update(_require_mapping(root["dataset"], "dataset"))
    _reject_unknown(dataset, _DATASET_KEYS, "dataset")
    for field in fields(SyntheticSpec):
        if field.name not in dataset:
            raise InputError(f"dataset.{field.name}: missing required key")

    spreads = dataset["spreads"]
    if not isinstance(spreads, list) or not spreads:
        raise InputError("dataset.spreads: expected a nonempty list of numbers")
    spreads = tuple(as_float(v, f"dataset.spreads[{i}]") for i, v in enumerate(spreads))

    spec = SyntheticSpec(
        C=as_int(dataset["C"], "dataset.C"),
        p=as_int(dataset["p"], "dataset.p"),
        n_train=_as_counts(dataset["n_train"], "dataset.n_train"),
        n_test=_as_counts(dataset["n_test"], "dataset.n_test"),
        spreads=spreads,
        mean_separation=as_float(dataset["mean_separation"], "dataset.mean_separation"),
        seed=as_int(dataset["seed"], "dataset.seed"),
    )

    train = dict(_TRAIN_DEFAULTS)
    train.update(_require_mapping(root.get("train", {}), "train"))
    _reject_unknown(train, _TRAIN_KEYS, "train")

    loss = train["loss"]
    if isinstance(loss, str):
        losses = (loss,)
    elif isinstance(loss, list) and loss and all(isinstance(v, str) for v in loss):
        losses = tuple(loss)
        if len(set(losses)) != len(losses):
            raise InputError("train.loss: duplicate loss names")
    else:
        raise InputError(f"train.loss: expected a loss name or list of names, got {loss!r}")
    for name in losses:
        if name not in LOSSES:
            raise InputError(f"train.loss: expected one of {LOSSES}, got {name!r}")

    common = dict(
        epochs=as_int(train["epochs"], "train.epochs"),
        lr=as_float(train["lr"], "train.lr"),
        momentum=as_float(train["momentum"], "train.momentum"),
        s=as_float(train["s"], "train.s"),
        queue_len=as_int(train["queue_len"], "train.queue_len"),
        info_variant=_as_string(train["info_variant"], "train.info_variant"),
        margin_variant=_as_string(train["margin_variant"], "train.margin_variant"),
        margin_direction=_as_string(train["margin_direction"], "train.margin_direction"),
        ibar_mode=_as_string(train["ibar_mode"], "train.ibar_mode"),
        batch_size=as_int(train["batch_size"], "train.batch_size"),
        seed=as_int(train["seed"], "train.seed"),
    )
    configs = tuple(TrainConfig(loss=name, **common) for name in losses)
    return ParsedRunConfig(spec=spec, configs=configs)
