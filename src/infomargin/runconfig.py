"""Run-configuration files for the toy trainer.

A config is a JSON document with two sections:

    {
      "dataset": { "C", "p", "n_train", "n_test", "spreads",
                   "mean_separation", "seed" },
      "train":   { "loss", "epochs", "lr", "momentum", "s", "queue_len",
                   "info_variant", "margin_variant", "margin_direction",
                   "ibar_mode", "batch_size", "seed" }
    }

`train.loss` may be a single name or a list, in which case one run per
loss is trained on the shared dataset. Unknown keys anywhere are rejected
with their field path, so typos fail loudly instead of silently falling
back to defaults.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, as_int
from .trainer import LOSSES, SyntheticSpec, TrainConfig

__all__ = ["ParsedRunConfig", "parse_run_config"]

_DATASET_KEYS = {"C", "p", "n_train", "n_test", "spreads", "mean_separation", "seed"}
_TRAIN_KEYS = {
    "loss", "epochs", "lr", "momentum", "s", "queue_len", "info_variant",
    "margin_variant", "margin_direction", "ibar_mode", "batch_size", "seed",
}

_DATASET_DEFAULTS = {"seed": 0}
_TRAIN_DEFAULTS = {
    "loss": "igam",
    "epochs": 30,
    "lr": 0.1,
    "momentum": 0.9,
    "s": 30.0,
    "queue_len": 50000,
    "info_variant": "double-exp",
    "margin_variant": "clamped",
    "margin_direction": "target",
    "ibar_mode": "sum",
    "batch_size": 64,
    "seed": 0,
}


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


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.floating)):
        raise InputError(f"{path}: expected a number, got {value!r}")
    out = float(value)
    if not np.isfinite(out):
        raise InputError(f"{path}: expected a finite number, got {value!r}")
    return out


def _as_counts(value, path: str):
    if isinstance(value, list):
        return tuple(as_int(v, f"{path}[{i}]") for i, v in enumerate(value))
    return as_int(value, path)


def _as_string(value, path: str, choices: tuple[str, ...] | None = None) -> str:
    if not isinstance(value, str):
        raise InputError(f"{path}: expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise InputError(f"{path}: expected one of {choices}, got {value!r}")
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
    for key in ("C", "p", "n_train", "n_test", "spreads", "mean_separation"):
        if key not in dataset:
            raise InputError(f"dataset.{key}: missing required key")

    spreads = dataset["spreads"]
    if not isinstance(spreads, list) or not spreads:
        raise InputError("dataset.spreads: expected a nonempty list of numbers")
    spreads = tuple(_as_number(v, f"dataset.spreads[{i}]") for i, v in enumerate(spreads))

    spec = SyntheticSpec(
        C=as_int(dataset["C"], "dataset.C"),
        p=as_int(dataset["p"], "dataset.p"),
        n_train=_as_counts(dataset["n_train"], "dataset.n_train"),
        n_test=_as_counts(dataset["n_test"], "dataset.n_test"),
        spreads=spreads,
        mean_separation=_as_number(dataset["mean_separation"], "dataset.mean_separation"),
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
        lr=_as_number(train["lr"], "train.lr"),
        momentum=_as_number(train["momentum"], "train.momentum"),
        s=_as_number(train["s"], "train.s"),
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
