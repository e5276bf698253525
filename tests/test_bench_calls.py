"""What the benchmark's workloads rely on, exercised here at a small size, so
that a change which breaks it fails the test suite rather than only the
benchmark: the library calls of the wide-epoch workload (`bench/worker.py`,
`WideEpoch`), and the `toy run` report keys that the toy-train gate
(`bench/gates.py`, `check_toy`) reads."""

import json
import math

import numpy as np

from infomargin.cli import main
from infomargin.info import information_amounts_from_stats
from infomargin.loss import CosineClassifier, build_margins, igam_batch, normalize_info
from infomargin.stats import CategoryStats, GlobalStats

from conftest import reference_amount


def test_wide_epoch_calls(tmp_path):
    C, p, batch = 5, 6, 8
    rng = np.random.default_rng(120)
    counts = np.array([3, 40, 6, 900, 12], dtype=np.int64)
    means = rng.standard_normal((C, p))
    A = rng.standard_normal((C, p, 2 * p))
    # The workload's statistics are views of one (C, p, p) array.
    covs = np.einsum("cij,ckj->cik", A, A) / (2 * p)
    stats = GlobalStats(p=covs.shape[1], categories={
        c: CategoryStats(total=int(counts[c]), mean=means[c], cov=covs[c])
        for c in range(counts.shape[0])
    })
    weights = rng.standard_normal((C, p))
    features = rng.standard_normal((2, batch, p))
    labels = rng.integers(0, C, size=(2, batch))

    table = information_amounts_from_stats(stats)
    norm = normalize_info(table, variant="double-exp", ibar="mean")
    margins = build_margins(norm, variant="clamped", direction="rival")
    clf = CosineClassifier(weights, scale=30.0)
    pool_losses = np.empty(labels.shape)
    total = 0.0
    for k in range(labels.shape[0]):
        out = igam_batch(clf, features[k], labels[k], margins)
        total += float(out.losses.sum()) + float(np.abs(out.grad_weights).sum())
        pool_losses[k] = out.losses
    ids, amounts = table.as_arrays()

    # The tracer counts `len(table.amounts)` as `info.categories`.
    assert len(table.amounts) == C
    assert ids.dtype == np.int64 and np.array_equal(ids, np.arange(C))
    assert amounts is table.amounts
    expected = [reference_amount(covs[c], int(m)) for c, m in enumerate(counts)]
    assert np.allclose(amounts, expected, rtol=1e-12, atol=0)
    assert margins.m.shape == (C, C) and np.all(margins.m >= 0)
    assert np.all(np.isfinite(pool_losses)) and np.isfinite(total)
    assert out.grad_weights.shape == (C, p)
    # The workload saves these arrays and hashes their bytes.
    np.savez(tmp_path / "wide_out.npz", ids=ids, amounts=amounts, margins=margins.m,
             losses=pool_losses)
    with np.load(tmp_path / "wide_out.npz") as saved:
        assert np.array_equal(saved["ids"], ids) and np.array_equal(saved["amounts"], amounts)


def test_toy_run_report_keys(tmp_path):
    # A 2-epoch, 3-loss `toy run` through the CLI, as the toy-train workload
    # runs it, read through the keys the toy-train gate reads.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "dataset": {"C": 3, "p": 4, "n_train": 40, "n_test": 20,
                    "spreads": [0.5, 1.0, 2.0], "mean_separation": 3.0},
        "train": {"loss": ["ce", "normface", "igam"], "epochs": 2, "queue_len": 50,
                  "batch_size": 16},
    }))
    seed = 5
    report = tmp_path / "report.json"
    assert main(["toy", "run", str(config), "--seed", str(seed), "--out", str(report)]) == 0
    doc = json.loads(report.read_text())

    assert doc["dataset"]["seed"] == seed
    C = doc["dataset"]["C"]
    assert C == 3
    runs = {run["train"]["loss"]: run for run in doc["runs"]}
    assert sorted(runs) == ["ce", "igam", "normface"] and len(doc["runs"]) == 3
    for run in runs.values():
        assert run["train"]["seed"] == seed
        assert [ep["epoch"] for ep in run["epochs"]] == [1, 2]
        for ep in run["epochs"]:
            acc = np.asarray(ep["per_class_accuracy"], dtype=np.float64)
            info = np.asarray(ep["info_amounts"], dtype=np.float64)
            assert acc.shape == (C,) and info.shape == (C,)
            assert np.all((acc >= 0) & (acc <= 1)) and np.all(np.isfinite(info))
            assert ep["bias_variance"] == float(np.var(acc))
            r = ep["pearson_info_acc"]
            assert r is None or -1.0 <= r <= 1.0
            assert math.isfinite(ep["loss_mean"])
