"""The library calls of the benchmark's wide-epoch workload (`bench/worker.py`,
`WideEpoch`), made here at a small size, so that a change which breaks them
fails the test suite rather than only the benchmark."""

import numpy as np

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
