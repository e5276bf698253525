"""Run-configuration parsing and schema validation."""

import dataclasses
import re

import pytest

from infomargin.errors import InputError
from infomargin.trainer import SyntheticSpec, TrainConfig, parse_run_config


def minimal():
    return {
        "dataset": {
            "C": 3,
            "p": 4,
            "n_train": 50,
            "n_test": 20,
            "spreads": [1.0, 2.0, 4.0],
            "mean_separation": 3.0,
        }
    }


def test_minimal_config_fills_train_defaults():
    spec, configs = parse_run_config(minimal())
    assert spec.C == 3
    assert spec.p == 4
    # scalar counts are broadcast to one entry per class
    assert spec.n_train == (50, 50, 50)
    assert spec.n_test == (20, 20, 20)
    assert spec.spreads == (1.0, 2.0, 4.0)
    assert spec.seed == 0
    assert len(configs) == 1
    cfg = configs[0]
    assert cfg.loss == "igam"
    assert cfg.epochs == 30
    assert cfg.lr == 0.1
    assert cfg.momentum == 0.9
    assert cfg.s == 30.0
    assert cfg.queue_len == 50000
    assert cfg.margin_direction == "target"
    assert cfg.ibar_mode == "sum"
    assert cfg.batch_size == 64
    assert cfg.seed == 0


def test_loss_list_expands_to_multiple_configs():
    doc = minimal()
    doc["train"] = {"loss": ["ce", "igam"], "epochs": 2}
    _, configs = parse_run_config(doc)
    assert [c.loss for c in configs] == ["ce", "igam"]
    assert all(c.epochs == 2 for c in configs)


def test_duplicate_losses_rejected():
    doc = minimal()
    doc["train"] = {"loss": ["ce", "ce"]}
    with pytest.raises(InputError, match="duplicate loss names"):
        parse_run_config(doc)


def test_unknown_loss_rejected():
    doc = minimal()
    doc["train"] = {"loss": "focal"}
    with pytest.raises(InputError, match="train.loss"):
        parse_run_config(doc)


def test_unknown_keys_rejected_with_field_path():
    doc = minimal()
    doc["dataset"]["sigma"] = 1.0
    with pytest.raises(InputError, match="dataset.sigma: unknown key"):
        parse_run_config(doc)
    doc = minimal()
    doc["train"] = {"learning_rate": 0.1}
    with pytest.raises(InputError, match="train.learning_rate: unknown key"):
        parse_run_config(doc)
    doc = minimal()
    doc["extra"] = {}
    with pytest.raises(InputError, match="config.extra: unknown key"):
        parse_run_config(doc)


def test_missing_required_keys_named():
    with pytest.raises(InputError, match="config.dataset: missing required section"):
        parse_run_config({})
    doc = minimal()
    del doc["dataset"]["spreads"]
    with pytest.raises(InputError, match="dataset.spreads: missing required key"):
        parse_run_config(doc)


def test_type_errors_name_field_paths():
    doc = minimal()
    doc["dataset"]["C"] = "three"
    with pytest.raises(InputError, match="dataset.C: expected an integer"):
        parse_run_config(doc)
    doc = minimal()
    doc["dataset"]["C"] = True  # bools are not integers here
    with pytest.raises(InputError, match="dataset.C: expected an integer"):
        parse_run_config(doc)
    doc = minimal()
    doc["dataset"]["mean_separation"] = "far"
    with pytest.raises(InputError, match="dataset.mean_separation: expected a number"):
        parse_run_config(doc)
    doc = minimal()
    doc["dataset"]["spreads"] = [1.0, "x", 2.0]
    with pytest.raises(InputError, match=r"dataset.spreads\[1\]: expected a number"):
        parse_run_config(doc)
    doc = minimal()
    doc["dataset"]["spreads"] = []
    with pytest.raises(InputError, match="dataset.spreads: expected a nonempty list"):
        parse_run_config(doc)
    doc = minimal()
    doc["train"] = {"lr": "fast"}
    with pytest.raises(InputError, match="train.lr: expected a number"):
        parse_run_config(doc)
    with pytest.raises(InputError, match="config: expected an object"):
        parse_run_config(["not", "a", "mapping"])


def test_per_class_counts_accepted():
    doc = minimal()
    doc["dataset"]["n_train"] = [10, 20, 30]
    doc["dataset"]["n_test"] = [5, 5, 5]
    spec, _ = parse_run_config(doc)
    assert spec.n_train == (10, 20, 30)
    assert spec.n_test == (5, 5, 5)
    doc["dataset"]["n_train"] = [10, "x", 30]
    with pytest.raises(InputError, match=r"dataset.n_train\[1\]"):
        parse_run_config(doc)


def test_dataclass_invariants_still_apply():
    # Structural validation passes but the spread count disagrees with C;
    # the dataclass contract catches it.
    doc = minimal()
    doc["dataset"]["spreads"] = [1.0, 2.0]
    with pytest.raises(InputError):
        parse_run_config(doc)
    doc = minimal()
    doc["train"] = {"margin_direction": "sideways"}
    with pytest.raises(InputError):
        parse_run_config(doc)
    doc = minimal()
    doc["train"] = {"lr": -0.5}
    with pytest.raises(InputError):
        parse_run_config(doc)


# One wrong-type and one out-of-range value per field. The dataclasses check
# every value, so each message starts with the section and the field name.
_BAD_VALUES = {
    ("dataset", "C"): (3.0, 1),
    ("dataset", "p"): ("4", 0),
    ("dataset", "n_train"): (2.5, 0),
    ("dataset", "n_test"): ([5, True, 5], [5, 0, 5]),
    ("dataset", "spreads"): ("wide", [1.0, -1.0, 2.0]),
    ("dataset", "mean_separation"): (None, -1.0),
    ("dataset", "seed"): (0.5, -1),
    ("train", "loss"): (7, "focal"),
    ("train", "epochs"): (True, 0),
    ("train", "lr"): ("0.1", 0.0),
    ("train", "momentum"): ([0.9], 1.0),
    ("train", "s"): (False, -30.0),
    ("train", "queue_len"): (100.0, 0),
    ("train", "margin_direction"): (["target"], "sideways"),
    ("train", "ibar_mode"): (0, "max"),
    ("train", "batch_size"): (2.5, 0),
    ("train", "seed"): ("0", -1),
}


def test_bad_values_cover_every_field():
    assert {key for section, key in _BAD_VALUES if section == "dataset"} == {
        f.name for f in dataclasses.fields(SyntheticSpec)}
    assert {key for section, key in _BAD_VALUES if section == "train"} == {
        f.name for f in dataclasses.fields(TrainConfig)}


@pytest.mark.parametrize("kind", ["type", "range"])
@pytest.mark.parametrize("section, key", sorted(_BAD_VALUES))
def test_bad_value_names_section_and_field(section, key, kind):
    doc = minimal()
    doc.setdefault(section, {})[key] = _BAD_VALUES[section, key][kind == "range"]
    with pytest.raises(InputError) as info:
        parse_run_config(doc)
    # "train.s" is also the start of "train.seed", so the name must end there.
    assert re.match(rf"{section}\.{key}[ :\[]", str(info.value)), str(info.value)


def test_range_errors_carry_the_section_path():
    doc = minimal()
    doc["train"] = {"epochs": 0}
    with pytest.raises(InputError, match=r"^train\.epochs must be >= 1, got 0$"):
        parse_run_config(doc)
    doc = minimal()
    doc["dataset"]["spreads"] = [1.0, 0.0, 2.0]
    with pytest.raises(InputError, match=r"^dataset\.spreads\[1\] must be > 0, got 0\.0$"):
        parse_run_config(doc)


def test_loss_list_must_be_nonempty_names():
    for loss in ([], ["ce", 3], None):
        doc = minimal()
        doc["train"] = {"loss": loss}
        with pytest.raises(InputError, match="train.loss: expected a loss name or list"):
            parse_run_config(doc)
