"""Synthetic benchmark generation and the toy training loop."""

import dataclasses
import re

import numpy as np
import pytest

from infomargin.errors import InputError, TrainingDivergedError
from infomargin.fileio import canonical_dumps
from infomargin.loss import MarginMatrix
from infomargin.trainer import (
    LOSSES,
    SyntheticSpec,
    TrainConfig,
    bias_variance,
    generate_dataset,
    pearson,
    run_report_to_json,
    train,
    train_result_to_json,
)


def small_spec(**kw):
    base = dict(C=3, p=4, n_train=60, n_test=30, spreads=(1.0, 1.0, 1.0),
                mean_separation=3.0, seed=0)
    base.update(kw)
    return SyntheticSpec(**base)


# ----------------------------------------------------------------- dataset


def test_generate_dataset_is_deterministic():
    spec = small_spec()
    a = generate_dataset(spec)
    b = generate_dataset(spec)
    assert np.array_equal(a.train_X, b.train_X)
    assert np.array_equal(a.test_X, b.test_X)
    assert np.array_equal(a.train_y, b.train_y)


def test_generate_dataset_counts_and_shapes():
    spec = small_spec(n_train=[10, 20, 30], n_test=[5, 6, 7])
    ds = generate_dataset(spec)
    assert ds.train_X.shape == (60, 4)
    assert ds.test_X.shape == (18, 4)
    assert np.array_equal(ds.train_counts, [10, 20, 30])
    assert np.array_equal(np.bincount(ds.train_y), [10, 20, 30])
    assert np.array_equal(np.bincount(ds.test_y), [5, 6, 7])


def test_class_means_respect_separation_and_spread():
    spec = small_spec(n_train=2000, n_test=10, spreads=(0.5, 1.0, 2.0),
                      mean_separation=6.0)
    ds = generate_dataset(spec)
    for c in range(3):
        block = ds.train_X[ds.train_y == c]
        assert np.linalg.norm(block.mean(axis=0)) == pytest.approx(6.0, abs=0.2)
        per_coord_std = block.std(axis=0).mean()
        assert per_coord_std == pytest.approx(spec.spreads[c], rel=0.1)


def test_generation_independent_per_class():
    # Per-class RNG streams: changing one class's count must not disturb
    # the others' draws.
    a = generate_dataset(small_spec(n_train=[10, 10, 10]))
    b = generate_dataset(small_spec(n_train=[10, 40, 10]))
    assert np.array_equal(a.train_X[a.train_y == 0], b.train_X[b.train_y == 0])
    assert np.array_equal(a.train_X[a.train_y == 2], b.train_X[b.train_y == 2])


def test_rank_deficient_class_warns():
    spec = small_spec(p=4, n_train=[3, 10, 10])
    with pytest.warns(RuntimeWarning, match="n_train=3 < p=4"):
        generate_dataset(spec)


def test_spec_validation():
    with pytest.raises(InputError):
        small_spec(C=1, spreads=(1.0,))
    with pytest.raises(InputError):
        small_spec(spreads=(1.0, 2.0))  # wrong length
    with pytest.raises(InputError):
        small_spec(spreads=(1.0, -1.0, 2.0))
    with pytest.raises(InputError):
        small_spec(mean_separation=-1.0)
    with pytest.raises(InputError):
        small_spec(seed=-1)
    with pytest.raises(InputError):
        small_spec(n_train=[10, 10])  # count list length != C
    with pytest.raises(InputError):
        small_spec(n_train=0)


def test_config_validation():
    assert LOSSES == ("ce", "normface", "igam")
    with pytest.raises(InputError):
        TrainConfig(loss="hinge")
    with pytest.raises(InputError):
        TrainConfig(epochs=0)
    with pytest.raises(InputError):
        TrainConfig(lr=0.0)
    with pytest.raises(InputError):
        TrainConfig(momentum=1.0)
    with pytest.raises(InputError):
        TrainConfig(margin_variant="soft")
    with pytest.raises(InputError):
        TrainConfig(margin_direction="up")
    with pytest.raises(InputError):
        TrainConfig(ibar_mode="max")
    with pytest.raises(InputError):
        TrainConfig(batch_size=0)


# -------------------------------------------------------------- diagnostics


def test_pearson_exact_on_affine_data():
    xs = np.array([1.0, 2.0, 5.0, 9.0])
    assert pearson(xs, 2.0 * xs + 3.0) == 1.0
    assert pearson(xs, -xs) == -1.0


def test_pearson_matches_extended_precision_reference():
    rng = np.random.default_rng(91)
    xs = rng.normal(size=30)
    ys = 0.3 * xs + rng.normal(size=30)
    xl = xs.astype(np.longdouble)
    yl = ys.astype(np.longdouble)
    dx, dy = xl - xl.mean(), yl - yl.mean()
    expected = float(dx @ dy / np.sqrt((dx @ dx) * (dy @ dy)))
    assert pearson(xs, ys) == pytest.approx(expected, rel=1e-12)


def test_pearson_rejects_degenerate_input():
    with pytest.raises(InputError, match="zero variance"):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(InputError, match="length mismatch"):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(InputError, match="two points"):
        pearson([1.0], [2.0])
    with pytest.raises(InputError, match="non-finite"):
        pearson([1.0, np.nan], [1.0, 2.0])


def test_bias_variance_population_form():
    # 0.75 * 3 / 3 is exact in binary, so the variance is exactly zero.
    assert bias_variance([0.75, 0.75, 0.75]) == 0.0
    assert bias_variance([0.8, 0.8, 0.8]) == pytest.approx(0.0, abs=1e-30)
    assert bias_variance([0.0, 1.0]) == 0.25
    rng = np.random.default_rng(92)
    acc = rng.uniform(0.0, 1.0, size=9)
    # population variance: mean of squared deviations (ddof = 0)
    expected = float(np.mean((acc - acc.mean()) ** 2))
    assert bias_variance(acc) == pytest.approx(expected, abs=1e-14)
    with pytest.raises(InputError):
        bias_variance([0.5])


# ---------------------------------------------------------------- training


def test_well_separated_classes_reach_high_accuracy():
    spec = SyntheticSpec(C=2, p=8, n_train=100, n_test=100,
                         spreads=(0.1, 0.1), mean_separation=4.0, seed=1)
    config = TrainConfig(loss="normface", epochs=10, lr=0.1, batch_size=32,
                         queue_len=200, seed=1)
    result = train(spec, config)
    assert result.reports[-1].per_class_accuracy.min() >= 0.99


def test_training_is_deterministic():
    spec = small_spec()
    config = TrainConfig(loss="igam", epochs=3, lr=0.1, batch_size=16, queue_len=90, seed=5)
    a = train(spec, config)
    b = train(spec, config)
    assert np.array_equal(a.weights, b.weights)
    for ra, rb in zip(a.reports, b.reports):
        assert ra.loss_mean == rb.loss_mean
        assert np.array_equal(ra.per_class_accuracy, rb.per_class_accuracy)
        assert np.array_equal(ra.info_amounts, rb.info_amounts)


def test_measured_information_orders_with_spread():
    # Classes with larger isotropic sigma occupy more embedding volume, so
    # their measured amounts must come out in spread order.
    wins = 0
    for seed in range(5):
        spec = SyntheticSpec(C=4, p=4, n_train=200, n_test=50,
                             spreads=(0.5, 1.0, 2.0, 4.0),
                             mean_separation=4.0, seed=seed)
        config = TrainConfig(loss="normface", epochs=2, lr=0.05,
                             batch_size=32, queue_len=800, seed=seed)
        result = train(spec, config)
        info = result.reports[-1].info_amounts
        if np.all(np.diff(info) > 0):
            wins += 1
    assert wins == 5


def test_igam_with_forced_zero_margins_equals_normface(monkeypatch):
    # With margin construction stubbed out to zeros the IGAM run must
    # reproduce the zero-margin baseline bit for bit: identical batches,
    # identical gradients, identical updates.
    import infomargin.trainer as trainer_mod

    monkeypatch.setattr(
        trainer_mod, "build_margins",
        lambda norm, variant="clamped", direction="target": MarginMatrix.zeros(len(norm.normalized)),
    )
    spec = small_spec()
    base = dict(epochs=3, lr=0.1, batch_size=16, queue_len=90, seed=3)
    res_igam = train(spec, TrainConfig(loss="igam", **base))
    res_nf = train(spec, TrainConfig(loss="normface", **base))
    assert np.array_equal(res_igam.weights, res_nf.weights)
    for ra, rb in zip(res_igam.reports, res_nf.reports):
        assert ra.loss_mean == rb.loss_mean


def test_first_epoch_runs_margin_free():
    # No information amounts exist before the first refresh, so a 1-epoch
    # IGAM run trains exactly like the zero-margin baseline; the refreshed
    # margins only show up in the final report.
    spec = small_spec(spreads=(0.5, 1.0, 2.0))
    base = dict(epochs=1, lr=0.1, batch_size=16, queue_len=90, seed=4)
    res_igam = train(spec, TrainConfig(loss="igam", **base))
    res_nf = train(spec, TrainConfig(loss="normface", **base))
    assert np.array_equal(res_igam.weights, res_nf.weights)
    assert np.abs(res_igam.final_margins.m).max() > 0.0
    assert np.abs(res_nf.final_margins.m).max() == 0.0


def test_equal_spreads_give_near_zero_margins():
    # Equal per-class spreads make the information amounts nearly equal,
    # so the learned margins stay tiny.
    for seed in range(5):
        spec = SyntheticSpec(C=5, p=8, n_train=200, n_test=200,
                             spreads=(1.0,) * 5, mean_separation=4.0, seed=seed)
        config = TrainConfig(loss="igam", epochs=10, lr=0.2, batch_size=32,
                             queue_len=150, seed=seed)
        result = train(spec, config)
        assert np.abs(result.final_margins.m).max() < 0.02, seed


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises():
    spec = small_spec()
    config = TrainConfig(loss="ce", epochs=2, lr=1e8, batch_size=16, queue_len=90)
    with pytest.raises(TrainingDivergedError):
        train(spec, config)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("loss", ["normface", "igam"])
def test_non_finite_weights_raise_with_epoch(loss):
    # The cosine losses stay finite while the weights overflow, so the
    # trainer's own weight check (not the loss check, and not the next
    # batch's InputError) must stop the run.
    spec = small_spec(n_train=30)
    config = TrainConfig(loss=loss, epochs=2, lr=1e308, batch_size=16, queue_len=90)
    message = f"non-finite weights in epoch 1 (loss={loss}, lr=1e+308)"
    with pytest.raises(TrainingDivergedError, match=re.escape(message)):
        train(spec, config)


def test_dataset_spec_mismatch_rejected():
    spec = small_spec()
    other = small_spec(seed=9)
    ds = generate_dataset(other)
    with pytest.raises(InputError, match="different spec"):
        train(spec, TrainConfig(epochs=1, queue_len=90), dataset=ds)


def test_pearson_count_acc_is_none_on_balanced_data():
    spec = small_spec()
    config = TrainConfig(loss="ce", epochs=1, batch_size=16, queue_len=90)
    result = train(spec, config)
    assert result.reports[0].pearson_count_acc is None


# ------------------------------------------------------------------- report


def test_run_report_json_structure():
    spec = small_spec(spreads=(0.5, 1.0, 2.0))
    configs = [
        TrainConfig(loss=name, epochs=2, batch_size=16, queue_len=90)
        for name in ("ce", "igam")
    ]
    ds = generate_dataset(spec)
    results = [train(spec, cfg, dataset=ds) for cfg in configs]
    doc = run_report_to_json(spec, results)
    assert set(doc) == {"dataset", "runs"}
    assert doc["dataset"] == {
        "C": 3, "p": 4, "n_train": (60, 60, 60), "n_test": (30, 30, 30),
        "spreads": (0.5, 1.0, 2.0), "mean_separation": 3.0, "seed": 0,
    }
    assert [run["train"]["loss"] for run in doc["runs"]] == ["ce", "igam"]
    for run, config in zip(doc["runs"], configs):
        assert run["train"] == dataclasses.asdict(config)
        assert {"train", "epochs", "final_margins", "final_info"} == set(run)
        assert len(run["epochs"]) == 2
        for ep in run["epochs"]:
            assert set(ep) == {
                "epoch", "per_class_accuracy", "info_amounts", "bias_variance",
                "pearson_info_acc", "pearson_count_acc", "loss_mean",
            }
            assert ep["pearson_count_acc"] is None  # balanced benchmark
    # The whole report must be canonically serializable (finite floats only).
    text = canonical_dumps(doc)
    assert text.endswith("\n")


def test_train_result_json_margin_block_round_trips():
    spec = small_spec(spreads=(0.5, 1.0, 2.0))
    result = train(spec, TrainConfig(loss="igam", epochs=2, batch_size=16, queue_len=90))
    doc = train_result_to_json(result)
    assert doc["train"]["margin_direction"] == "target"
    assert doc["final_margins"]["C"] == 3
    flat = np.asarray(doc["final_margins"]["margins_row_major"]).reshape(3, 3)
    assert np.array_equal(flat, result.final_margins.m)
