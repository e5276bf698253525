"""Run-configuration files for the toy trainer.

A config is a JSON document with two sections, `dataset` and `train`, whose
keys and defaults are the fields of `SyntheticSpec` and `TrainConfig`. Only
the structure is checked here: objects, no unknown or missing keys (named by
field path, so typos fail loudly), and `train.loss` as one name or a list of
distinct names, for one run per loss on the shared dataset. The dataclasses
check every value, for config files and library callers alike; their errors
come back prefixed with the section, as in `train.epochs must be >= 1, got 0`.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields

from .errors import InputError, as_object
from .trainer import SyntheticSpec, TrainConfig

__all__ = ["ParsedRunConfig", "parse_run_config"]


@dataclass(frozen=True)
class ParsedRunConfig:
    """Validated config: one dataset spec and one TrainConfig per loss."""

    spec: SyntheticSpec
    configs: tuple[TrainConfig, ...]


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


def parse_run_config(doc) -> ParsedRunConfig:
    """Check a loaded JSON document's structure and build the dataset and
    train configs. Raises InputError naming the offending field path."""
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
    return ParsedRunConfig(spec=spec, configs=configs)
