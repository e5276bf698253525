"""Synthetic benchmark generation and the toy training loop."""

import dataclasses
import json
import re
import warnings

import numpy as np
import pytest

import infomargin.trainer as trainer_mod
from infomargin.errors import InputError, TrainingDivergedError
from infomargin.fileio import canonical_dumps
from infomargin.info import InfoAmountTable, information_amounts_from_stats
from infomargin.loss import (
    CosineClassifier,
    MarginMatrix,
    _ce_kernel,
    _cosine_kernel,
    _unit_rows,
    build_margins,
    ce_batch,
    igam_batch,
    normalize_info,
)
from infomargin.stats import EpochAccumulator
from infomargin.trainer import (
    LOSSES,
    SyntheticSpec,
    TrainConfig,
    bias_variance,
    generate_dataset,
    pearson,
    run_report_to_json,
    train,
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


def _reference_dataset(spec):
    # Each class's block drawn whole, then the blocks concatenated: the
    # construction generate_dataset's in-place writes must match bit for bit.
    train_blocks, test_blocks, train_labels, test_labels = [], [], [], []
    for c in range(spec.C):
        rng = np.random.default_rng([spec.seed, c])
        direction = rng.standard_normal(spec.p)
        mean = direction / np.linalg.norm(direction) * spec.mean_separation
        sigma = spec.spreads[c]
        train_blocks.append(mean + sigma * rng.standard_normal((spec.n_train[c], spec.p)))
        test_blocks.append(mean + sigma * rng.standard_normal((spec.n_test[c], spec.p)))
        train_labels.append(np.full(spec.n_train[c], c, dtype=np.int64))
        test_labels.append(np.full(spec.n_test[c], c, dtype=np.int64))
    return dict(
        train_X=np.concatenate(train_blocks),
        train_y=np.concatenate(train_labels),
        test_X=np.concatenate(test_blocks),
        test_y=np.concatenate(test_labels),
    )


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("counts", [
    dict(n_train=60, n_test=30),
    dict(n_train=[10, 1, 25], n_test=[1, 7, 3]),
    dict(n_train=[5, 5, 1], n_test=4),
])
def test_generate_dataset_is_bit_identical_to_concatenated_blocks(counts, seed):
    spec = small_spec(spreads=(0.5, 1.0, 3.0), seed=seed, **counts)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the 1-row classes
        ds = generate_dataset(spec)
    for name, expected in _reference_dataset(spec).items():
        got = getattr(ds, name)
        assert got.dtype == expected.dtype, name
        assert expected.dtype in (np.float64, np.int64), name
        assert got.flags.c_contiguous, name
        assert np.array_equal(got, expected), name


def test_rank_deficient_class_warns():
    spec = small_spec(p=4, n_train=[3, 10, 10])
    with pytest.warns(RuntimeWarning, match="n_train=3 <= p=4"):
        generate_dataset(spec)


def test_n_train_equal_to_p_warns():
    # n centred rows have rank at most n - 1, so n_train = p is deficient too.
    spec = small_spec(p=4, n_train=[4, 10, 10])
    with pytest.warns(RuntimeWarning, match="n_train=4 <= p=4"):
        ds = generate_dataset(spec)
    assert np.linalg.matrix_rank(np.cov(ds.train_X[:4], rowvar=False)) == 3


def test_no_rank_warning_above_p():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        generate_dataset(small_spec(p=4, n_train=5))


def test_rank_deficient_classes_warn_once():
    # One warning names the count and the first three classes, however many
    # classes have n_train < p (1,038 at LVIS width).
    spec = small_spec(C=6, p=4, n_train=[3, 10, 2, 1, 3, 2], spreads=(1.0,) * 6)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        generate_dataset(spec)
    (warning,) = caught
    assert warning.category is RuntimeWarning
    text = str(warning.message)
    assert text.startswith("5 of 6 classes ")
    assert text.endswith("class 0: n_train=3 <= p=4; class 2: n_train=2 <= p=4; "
                         "class 3: n_train=1 <= p=4; and 2 more")


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
    for gone in ("info_variant", "margin_variant"):
        with pytest.raises(TypeError):
            TrainConfig(**{gone: "double-exp"})
    with pytest.raises(InputError):
        TrainConfig(margin_direction="up")
    with pytest.raises(InputError):
        TrainConfig(ibar_mode="max")
    with pytest.raises(InputError):
        TrainConfig(batch_size=0)


@pytest.mark.parametrize("kwargs, message", [
    (dict(epochs=True), "epochs: expected an integer, got True"),
    (dict(seed=2.0), "seed: expected an integer, got 2.0"),
    (dict(batch_size=2.5), "batch_size: expected an integer, got 2.5"),
    (dict(lr="0.1"), "lr: expected a number, got '0.1'"),
    (dict(momentum=1.0), "momentum must be in [0, 1), got 1.0"),
    (dict(s=float("inf")), "s: expected a finite number, got inf"),
    (dict(ibar_mode=None), "ibar_mode must be one of ('sum', 'mean'), got None"),
])
def test_config_checks_types_for_library_callers(kwargs, message):
    with pytest.raises(InputError, match="^" + re.escape(message)):
        TrainConfig(**kwargs)


@pytest.mark.parametrize("kwargs, message", [
    (dict(C=3.0), "C: expected an integer, got 3.0"),
    (dict(p=np.float64(4.0)), "p: expected an integer"),
    (dict(n_train=[10, 10.5, 10]), "n_train[1]: expected an integer, got 10.5"),
    (dict(n_test=[10, 0, 10]), "n_test[1] must be >= 1, got 0"),
    (dict(spreads="wide"), "spreads: expected a nonempty list"),
    (dict(spreads=(1.0, "2", 1.0)), "spreads[1]: expected a number, got '2'"),
    (dict(mean_separation=-1.0), "mean_separation must be >= 0, got -1.0"),
    (dict(seed=True), "seed: expected an integer, got True"),
])
def test_spec_checks_types_for_library_callers(kwargs, message):
    with pytest.raises(InputError, match="^" + re.escape(message)):
        small_spec(**kwargs)


def test_spec_and_config_accept_arrays_and_numpy_scalars():
    spec = small_spec(C=np.int64(3), n_train=np.array([5, 6, 7]), n_test=np.int32(4),
                      spreads=np.array([0.5, 1.0, 2.0]), mean_separation=np.float32(2.0))
    assert spec == small_spec(n_train=(5, 6, 7), n_test=4, spreads=[0.5, 1.0, 2.0],
                              mean_separation=2.0)
    assert type(spec.C) is int and all(type(n) is int for n in spec.n_train + spec.n_test)
    assert all(type(v) is float for v in spec.spreads + (spec.mean_separation,))
    config = TrainConfig(epochs=np.int64(2), lr=np.int64(1), momentum=np.float32(0.5))
    assert config == TrainConfig(epochs=2, lr=1.0, momentum=0.5)
    assert type(config.epochs) is int and type(config.lr) is float


def test_report_with_numpy_scalar_settings_is_json():
    # Settings are stored as Python numbers, so the report's echo of them
    # serializes like any other.
    spec = small_spec(n_train=np.array([20, 30, 40]), seed=np.int64(0))
    config = TrainConfig(loss="igam", epochs=np.int64(1), batch_size=np.int64(16),
                         queue_len=np.int64(90))
    result = train(generate_dataset(spec), config)
    doc = json.loads(canonical_dumps(run_report_to_json(spec, [result])))
    assert doc["runs"][0]["train"]["epochs"] == 1
    assert doc["dataset"]["n_train"] == [20, 30, 40]


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
    result = train(generate_dataset(spec), config)
    assert result.reports[-1].per_class_accuracy.min() >= 0.99


def test_training_is_deterministic():
    spec = small_spec()
    config = TrainConfig(loss="igam", epochs=3, lr=0.1, batch_size=16, queue_len=90, seed=5)
    a = train(generate_dataset(spec), config)
    b = train(generate_dataset(spec), config)
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
        result = train(generate_dataset(spec), config)
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
        lambda norm, direction="target": MarginMatrix(np.zeros((len(norm), len(norm)))),
    )
    ds = generate_dataset(small_spec())
    base = dict(epochs=3, lr=0.1, batch_size=16, queue_len=90, seed=3)
    res_igam = train(ds, TrainConfig(loss="igam", **base))
    res_nf = train(ds, TrainConfig(loss="normface", **base))
    assert np.array_equal(res_igam.weights, res_nf.weights)
    for ra, rb in zip(res_igam.reports, res_nf.reports):
        assert ra.loss_mean == rb.loss_mean


def test_first_epoch_runs_margin_free():
    # No information amounts exist before the first refresh, so a 1-epoch
    # IGAM run trains exactly like the zero-margin baseline; the refreshed
    # margins only show up in the final report, and normface builds none.
    ds = generate_dataset(small_spec(spreads=(0.5, 1.0, 2.0)))
    base = dict(epochs=1, lr=0.1, batch_size=16, queue_len=90, seed=4)
    res_igam = train(ds, TrainConfig(loss="igam", **base))
    res_nf = train(ds, TrainConfig(loss="normface", **base))
    assert np.array_equal(res_igam.weights, res_nf.weights)
    assert np.abs(res_igam.final_margins.m).max() > 0.0
    assert res_nf.final_margins is None


@pytest.mark.parametrize("loss", LOSSES)
def test_amounts_are_computed_once_per_run(monkeypatch, loss):
    # The features are fixed, so epoch 1's refresh serves every epoch.
    calls = []

    def counting(stats):
        calls.append(stats)
        return information_amounts_from_stats(stats)

    monkeypatch.setattr(trainer_mod, "information_amounts_from_stats", counting)
    ds = generate_dataset(small_spec(spreads=(0.5, 1.0, 2.0)))
    config = TrainConfig(loss=loss, epochs=4, lr=0.1, batch_size=16, queue_len=77, seed=6)
    result = train(ds, config)
    assert len(calls) == 1
    first = result.reports[0].info_amounts
    for report in result.reports[1:]:
        assert np.array_equal(report.info_amounts, first)


def test_equal_spreads_give_near_zero_margins():
    # Equal per-class spreads make the information amounts nearly equal,
    # so the learned margins stay tiny.
    for seed in range(5):
        spec = SyntheticSpec(C=5, p=8, n_train=200, n_test=200,
                             spreads=(1.0,) * 5, mean_separation=4.0, seed=seed)
        config = TrainConfig(loss="igam", epochs=10, lr=0.2, batch_size=32,
                             queue_len=150, seed=seed)
        result = train(generate_dataset(spec), config)
        assert np.abs(result.final_margins.m).max() < 0.02, seed


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises():
    spec = small_spec()
    config = TrainConfig(loss="ce", epochs=2, lr=1e8, batch_size=16, queue_len=90)
    with pytest.raises(TrainingDivergedError):
        train(generate_dataset(spec), config)


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
        train(generate_dataset(spec), config)


def test_pearson_count_acc_is_none_on_balanced_data():
    spec = small_spec()
    config = TrainConfig(loss="ce", epochs=1, batch_size=16, queue_len=90)
    result = train(generate_dataset(spec), config)
    assert result.reports[0].pearson_count_acc is None


def test_pearson_count_acc_is_taken_against_log_counts():
    # Counts grow geometrically, so log(n_train) is evenly spaced and the
    # correlation differs from the one against the raw counts.
    n_train = [30, 60, 120, 240]
    spec = small_spec(C=4, n_train=n_train, spreads=(1.0, 1.5, 2.0, 2.5),
                      mean_separation=2.0)
    config = TrainConfig(loss="ce", epochs=2, batch_size=16, queue_len=90)
    result = train(generate_dataset(spec), config)
    for report in result.reports:
        assert report.pearson_count_acc is not None
        assert report.pearson_count_acc == pearson(np.log(n_train), report.per_class_accuracy)


# ------------------------------------------------------------------- report


def test_run_report_json_structure():
    spec = small_spec(spreads=(0.5, 1.0, 2.0))
    configs = [
        TrainConfig(loss=name, epochs=2, batch_size=16, queue_len=90)
        for name in ("ce", "igam")
    ]
    ds = generate_dataset(spec)
    results = [train(ds, cfg) for cfg in configs]
    doc = run_report_to_json(spec, results)
    assert set(doc) == {"dataset", "runs"}
    assert doc["dataset"] == {
        "C": 3, "p": 4, "n_train": (60, 60, 60), "n_test": (30, 30, 30),
        "spreads": (0.5, 1.0, 2.0), "mean_separation": 3.0, "seed": 0,
    }
    assert [run["train"]["loss"] for run in doc["runs"]] == ["ce", "igam"]
    for run, config in zip(doc["runs"], configs):
        assert run["train"] == dataclasses.asdict(config)
        assert {"train", "epochs", "final_margins"} == set(run)
        # ce builds no margins, so it reports none.
        assert (run["final_margins"] is None) == (config.loss == "ce")
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
    config = TrainConfig(loss="igam", epochs=2, batch_size=16, queue_len=90)
    result = train(generate_dataset(spec), config)
    (doc,) = run_report_to_json(spec, [result])["runs"]
    assert doc["train"]["margin_direction"] == "target"
    assert doc["final_margins"]["C"] == 3
    flat = np.asarray(doc["final_margins"]["margins_row_major"]).reshape(3, 3)
    assert np.array_equal(flat, result.final_margins.m)


# ------------------------------------------- kernel path against the API


@pytest.mark.parametrize("case", ["zero", "clamped-rival", "signed"])
def test_kernel_on_rows_normalized_whole_equals_public_api(case):
    # The trainer normalizes the whole training set once and gathers unit
    # rows per step; that must give the bits of the public losses on the
    # raw batch.
    C, p = 5, 7
    spec = small_spec(C=C, p=p, n_train=40, spreads=(0.5, 1.0, 1.5, 2.0, 3.0))
    ds = generate_dataset(spec)
    rng = np.random.default_rng(71)
    W = rng.normal(size=(C, p))
    clf = CosineClassifier(W, scale=12.0)
    norm = normalize_info(InfoAmountTable(np.arange(C), rng.uniform(1.0, 50.0, size=C)),
                          ibar="mean")
    # "signed": the unclamped, antisymmetric ln(I'_i / I'_j) / pi, a matrix
    # `build_margins` does not make but `loss-eval --margins` may read.
    logs = np.log(norm)
    signed = (logs[:, None] - logs[None, :]) / np.pi
    np.fill_diagonal(signed, 0.0)
    margins = {
        "zero": MarginMatrix(np.zeros((C, C))),
        "clamped-rival": build_margins(norm, direction="rival"),
        "signed": MarginMatrix(signed),
    }[case]
    U, _ = _unit_rows(ds.train_X, "feature")
    Wn, wnorms = _unit_rows(W, "weight")
    idx = rng.permutation(ds.train_y.shape[0])[:23]
    Xb, Ub, yb = ds.train_X[idx], U[idx], ds.train_y[idx]

    public = [igam_batch(clf, Xb, yb, margins)]
    kernel = [_cosine_kernel(Ub, Wn, wnorms, yb, margins, clf.scale)]
    if case == "zero":
        public.append(igam_batch(clf, Xb, yb, None))
        kernel.append(_cosine_kernel(Ub, Wn, wnorms, yb, None, clf.scale))
    public.append(ce_batch(clf, Xb, yb))
    kernel.append(_ce_kernel(Xb, W, yb))
    for want, got in zip(public, kernel):
        assert np.array_equal(got[0], want.losses)
        assert np.array_equal(got[1], want.grad_weights)


def _reference_train(spec, config, dataset):
    """The per-batch public-API loop `train` replaced, kept to pin its bits.

    The queue takes rows and refreshes the amounts in epoch 1 only: the
    features are fixed, so a later epoch's queue would repeat the same
    statistics, and `train` reuses epoch 1's amounts and margins."""
    C, p = spec.C, spec.p
    n_total = dataset.train_X.shape[0]
    rng_init = np.random.default_rng([config.seed, 101])
    clf = CosineClassifier(rng_init.standard_normal((C, p)) / np.sqrt(p), scale=config.s)
    W = clf.weights
    velocity = np.zeros_like(W)
    margins = MarginMatrix(np.zeros((C, C)))
    info = np.zeros(C)
    accumulator = EpochAccumulator(capacity=config.queue_len, p=p)
    reports = []
    for epoch in range(1, config.epochs + 1):
        order = np.random.default_rng([config.seed, 202, epoch]).permutation(n_total)
        loss_total = 0.0
        for start in range(0, n_total, config.batch_size):
            idx = order[start:start + config.batch_size]
            Xb, yb = dataset.train_X[idx], dataset.train_y[idx]
            if config.loss == "ce":
                out = ce_batch(clf, Xb, yb)
            else:
                out = igam_batch(clf, Xb, yb, margins)
            loss_total += float(out.losses.sum())
            velocity *= config.momentum
            velocity += out.grad_weights
            W -= config.lr * velocity
            if epoch == 1:
                accumulator.add(Xb, yb)
        if epoch == 1:
            refreshed = information_amounts_from_stats(accumulator.finalize())
            info[refreshed.ids] = refreshed.amounts
            if config.loss == "igam":
                table = InfoAmountTable(np.arange(C), info)
                norm = normalize_info(table, ibar=config.ibar_mode)
                margins = build_margins(norm, direction=config.margin_direction)
        if config.loss == "ce":
            preds = np.argmax(dataset.test_X @ W.T, axis=1)
        else:
            preds = np.argmax(clf.cosines(dataset.test_X), axis=1)
        acc = np.array([np.mean(preds[dataset.test_y == c] == c) for c in range(C)])
        reports.append((acc, info.copy(), loss_total / n_total))
    return W, margins, reports


# batch_size 16 does not divide n = 180; queue lengths below the batch
# size, not dividing n, and above n.
_QUEUE_LENS = [12, 77, 500]


@pytest.mark.parametrize("queue_len", _QUEUE_LENS)
@pytest.mark.parametrize("loss", LOSSES)
def test_train_equals_per_batch_public_api_loop(loss, queue_len):
    spec = small_spec(p=5, spreads=(0.5, 1.0, 2.0))
    ds = generate_dataset(spec)
    config = TrainConfig(loss=loss, epochs=3, lr=0.1, batch_size=16,
                         queue_len=queue_len, margin_direction="rival", seed=7)
    result = train(ds, config)
    W, margins, reports = _reference_train(spec, config, ds)
    assert np.array_equal(result.weights, W)
    if loss == "igam":
        assert np.array_equal(result.final_margins.m, margins.m)
        assert np.abs(margins.m).max() > 0.0
    else:
        assert result.final_margins is None
    assert len(result.reports) == len(reports) == 3
    for got, (acc, info, loss_mean) in zip(result.reports, reports):
        assert np.array_equal(got.per_class_accuracy, acc)
        assert np.array_equal(got.info_amounts, info)
        assert got.loss_mean == loss_mean


@pytest.mark.parametrize("queue_len", _QUEUE_LENS)
def test_one_add_per_epoch_cuts_the_same_windows(queue_len):
    spec = small_spec(p=5, spreads=(0.5, 1.0, 2.0))
    ds = generate_dataset(spec)
    order = np.random.default_rng(8).permutation(ds.train_y.shape[0])
    X, y = ds.train_X[order], ds.train_y[order]
    whole = EpochAccumulator(capacity=queue_len, p=spec.p)
    whole.add(X, y)
    batched = EpochAccumulator(capacity=queue_len, p=spec.p)
    for start in range(0, X.shape[0], 16):
        batched.add(ds.train_X[order[start:start + 16]], ds.train_y[order[start:start + 16]])
    got, want = whole.finalize(), batched.finalize()
    assert list(got.categories) == list(want.categories) == [0, 1, 2]
    for c, w in want.categories.items():
        g = got.categories[c]
        assert (g.total, g.windows) == (w.total, w.windows)
        assert np.array_equal(g.mean, w.mean)
        assert np.array_equal(g.cov, w.cov)


# ------------------------------------------------- boundary validation


def _set(part, row, value):
    def mutate(ds):
        getattr(ds, part)[row] = value
    return mutate


_BAD_DATASETS = {
    "nan-train-feature": (LOSSES, _set("train_X", (37, 2), np.nan),
                          "train data: non-finite value in row 37"),
    "inf-test-feature": (LOSSES, _set("test_X", (5, 0), -np.inf),
                         "test data: non-finite value in row 5"),
    "zero-norm-train-row": (("normface", "igam"), _set("train_X", 41, 0.0),
                            "zero-norm train feature vector at index 41"),
    "zero-norm-test-row": (("normface", "igam"), _set("test_X", 3, 0.0),
                           "zero-norm test feature vector at index 3"),
    "label-at-C": (LOSSES, _set("train_y", 50, 3),
                   re.escape("train data: id 3 in row 50 is outside [0, 3)")),
    "negative-label": (LOSSES, _set("train_y", 7, -1),
                       re.escape("train data: id -1 in row 7 is outside [0, 3)")),
    "negative-test-label": (LOSSES, _set("test_y", 2, -4),
                            re.escape("test data: id -4 in row 2 is outside [0, 3)")),
}


@pytest.mark.parametrize("case", sorted(_BAD_DATASETS))
def test_bad_dataset_rejected_before_any_step(monkeypatch, case):
    losses, mutate, message = _BAD_DATASETS[case]

    def no_step(*args):
        raise AssertionError("an SGD step ran on an unchecked dataset")

    monkeypatch.setattr(trainer_mod, "_cosine_kernel", no_step)
    monkeypatch.setattr(trainer_mod, "_ce_kernel", no_step)
    spec = small_spec()
    for loss in losses:
        ds = generate_dataset(spec)
        mutate(ds)
        config = TrainConfig(loss=loss, epochs=1, batch_size=16, queue_len=90)
        with pytest.raises(InputError, match=message):
            train(ds, config)


def test_ce_accepts_zero_norm_rows():
    # Raw inner products need no normalization, so a zero row is a valid
    # plain cross-entropy input.
    spec = small_spec()
    ds = generate_dataset(spec)
    ds.train_X[41] = 0.0
    ds.test_X[3] = 0.0
    result = train(ds, TrainConfig(loss="ce", epochs=1, batch_size=16, queue_len=90))
    assert np.isfinite(result.reports[0].loss_mean)


@pytest.mark.parametrize("part", ["train", "test"])
def test_class_without_rows_is_rejected(part):
    # Without test rows a class's accuracy is 0/0; without train rows it has
    # no amount to set its margins.
    spec = small_spec()
    ds = generate_dataset(spec)
    keep = getattr(ds, f"{part}_y") != 2
    setattr(ds, f"{part}_X", getattr(ds, f"{part}_X")[keep])
    setattr(ds, f"{part}_y", getattr(ds, f"{part}_y")[keep])
    for loss in LOSSES:
        with pytest.raises(InputError, match=f"^class 2 has no {part} rows$"):
            train(ds, TrainConfig(loss=loss, epochs=1, batch_size=16, queue_len=90))


def test_dataset_shapes_and_dtypes_checked():
    spec = small_spec()
    config = TrainConfig(epochs=1, batch_size=16, queue_len=90)
    ds = generate_dataset(spec)
    ds.train_X = ds.train_X[:, :3]
    with pytest.raises(InputError, match=re.escape("train data: expected an (n, 4) array, got shape (180, 3)")):
        train(ds, config)
    ds = generate_dataset(spec)
    ds.test_y = ds.test_y.astype(np.float64)
    with pytest.raises(InputError, match="test data: ids must be integers, got dtype float64"):
        train(ds, config)
    ds = generate_dataset(spec)
    ds.test_X = ds.test_X.astype(np.float32)
    with pytest.raises(InputError, match="test_X must be a float64 array, got dtype float32"):
        train(ds, config)
