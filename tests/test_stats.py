"""Window statistics, the exact merge, and the streaming queue."""

import re
import tracemalloc

import numpy as np
import pytest

from infomargin import stats as stats_module
from infomargin.errors import InputError, NumericalError
from infomargin.stats import (
    CategoryStats,
    EpochAccumulator,
    global_stats_from_json,
    global_stats_to_json,
    local_stats_from_arrays,
    merge_stats,
    stats_entry_arrays,
)


def two_pass_reference(X):
    """Textbook mean / population covariance in 80-bit extended precision."""
    Xl = np.asarray(X, dtype=np.longdouble)
    mean = Xl.mean(axis=0)
    centered = Xl - mean
    cov = centered.T @ centered / Xl.shape[0]
    return np.asarray(mean, dtype=np.float64), np.asarray(cov, dtype=np.float64)


def rel_frobenius(a, b):
    scale = max(np.linalg.norm(b), 1e-30)
    return np.linalg.norm(a - b) / scale


def column(values):
    """Scalar stream as an (n, 1) embedding batch."""
    return np.asarray(values, dtype=np.float64).reshape(-1, 1)


# ------------------------------------------------------------ add validation


def test_add_rejects_negative_category():
    acc = EpochAccumulator(capacity=4, p=3)
    with pytest.raises(InputError):
        acc.add(np.zeros((2, 3)), [0, -1])


def test_add_rejects_non_finite_values():
    acc = EpochAccumulator(capacity=4, p=2)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InputError):
            acc.add(np.array([[0.0, 0.0], [1.0, bad]]), [0, 0])


def test_add_rejects_wrong_dimension():
    acc = EpochAccumulator(capacity=4, p=3)
    with pytest.raises(InputError):
        acc.add(np.zeros((2, 4)), [0, 0])
    with pytest.raises(InputError):
        acc.add(np.zeros(3), [0])  # a bare vector is not an (n, p) batch


def test_add_rejects_length_mismatch():
    acc = EpochAccumulator(capacity=4, p=2)
    with pytest.raises(InputError):
        acc.add(np.zeros((3, 2)), [0, 1])


def test_add_rejects_float_category_ids():
    acc = EpochAccumulator(capacity=4, p=2)
    with pytest.raises(InputError):
        acc.add(np.zeros((2, 2)), np.array([0.0, 1.0]))


def test_rejected_batch_leaves_accumulator_unchanged():
    acc = EpochAccumulator(capacity=2, p=1)
    acc.add(column([5.0]), [1])
    with pytest.raises(InputError):
        acc.add(column([1.0, 2.0, np.nan]), [0, 0, 0])
    # Nothing of the rejected batch is pending or snapshotted: only the
    # accepted row is counted, in the one final window.
    stats = acc.finalize()
    assert list(stats.categories) == [1]
    cs = stats.categories[1]
    assert (cs.total, cs.windows) == (1, 1)
    assert np.array_equal(cs.mean, [5.0])


# ---------------------------------------------------------- local statistics


def test_single_record_gives_zero_covariance():
    out = local_stats_from_arrays(np.array([[2.0, -1.0, 3.0]]), [4])
    assert list(out) == [4]
    ls = out[4]
    assert ls.total == 1
    assert np.array_equal(ls.mean, np.array([2.0, -1.0, 3.0]))
    assert np.array_equal(ls.cov, np.zeros((3, 3)))


def test_pair_of_opposite_scalars_has_unit_variance():
    # Population variance of {-1, +1}: mean 0, E[x^2] - mean^2 = 1.
    ls = local_stats_from_arrays(np.array([[-1.0], [1.0]]), [0, 0])[0]
    assert ls.total == 2
    assert np.array_equal(ls.mean, np.array([0.0]))
    assert np.array_equal(ls.cov, np.array([[1.0]]))


def test_local_stats_match_extended_precision_reference():
    rng = np.random.default_rng(71)
    X = rng.normal(size=(5, 2)) * 3.0 + 1.5
    ls = local_stats_from_arrays(X, [7] * 5)[7]
    mean_ref, cov_ref = two_pass_reference(X)
    assert np.allclose(ls.mean, mean_ref, rtol=1e-12, atol=1e-15)
    assert rel_frobenius(ls.cov, cov_ref) < 1e-12


def test_local_stats_split_by_category_sorted():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(7, 3))
    cats = [5, 1, 5, 1, 1, 9, 5]
    out = local_stats_from_arrays(X, cats)
    assert list(out) == [1, 5, 9]
    assert [ls.total for ls in out.values()] == [3, 3, 1]
    for cat, ls in out.items():
        rows = X[np.asarray(cats) == cat]
        mean_ref, cov_ref = two_pass_reference(rows)
        assert np.allclose(ls.mean, mean_ref, rtol=1e-12, atol=1e-15)
        assert np.allclose(ls.cov, cov_ref, rtol=1e-12, atol=1e-15)


def test_local_stats_rejects_float_and_negative_ids():
    # Float ids were once grouped by int(id): [2.2, 2.7, 2.7] came back as
    # {2: total 2}, and the record with id 2.2 was silently lost.
    X = np.array([[1.0], [3.0], [10.0]])
    with pytest.raises(InputError, match="ids must be integers, got dtype float64"):
        local_stats_from_arrays(X, np.array([2.2, 2.7, 2.7]))
    with pytest.raises(InputError, match="must be integers"):
        local_stats_from_arrays(X, np.array([True, False, True]))
    with pytest.raises(InputError, match=re.escape(f"id -1 in row 1 is outside [0, {2**63})")):
        local_stats_from_arrays(X, np.array([2, -1, 2]))


def test_add_rejects_ids_beyond_int64():
    # As int64 the id 2**63 would read -2**63. A capacity of one closes the
    # window at once, so the check in `add` is the only one the row meets.
    acc = EpochAccumulator(capacity=1, p=1)
    with pytest.raises(InputError, match=re.escape(f"id {2**63} in row 0 is outside")):
        acc.add(np.ones((2, 1)), np.array([2**63, 1], dtype=np.uint64))
    with pytest.raises(InputError, match=re.escape(f"id {2**63} in row 0 is outside")):
        local_stats_from_arrays(np.ones((2, 1)), np.array([2**63, 1], dtype=np.uint64))


def test_local_stats_covariance_is_symmetric_psd():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(40, 6)) @ np.diag([5.0, 2.0, 1.0, 0.5, 0.1, 0.01])
    ls = local_stats_from_arrays(X, [0] * 40)[0]
    assert np.array_equal(ls.cov, ls.cov.T)
    assert np.linalg.eigvalsh(ls.cov).min() > -1e-12


def _mask_loop_reference(X, categories):
    """The window statistics as one boolean mask per category selected them
    before rows were grouped by a sort: {id: (count, mean, cov)}."""
    out = {}
    for cat in np.unique(categories):
        rows = X[categories == cat]
        n = rows.shape[0]
        mean = rows.mean(axis=0)
        centered = rows - mean
        cov = centered.T @ centered / n
        cov = 0.5 * (cov + cov.T)
        out[int(cat)] = (n, mean, cov)
    return out


_rng = np.random.default_rng(31)
_GROUPING_CASES = {
    "interleaved-unsorted": _rng.permutation(np.arange(300) % 7 * 3 + 2),
    "sparse-large": _rng.choice([9, 2**31 + 5, 4_000_000_000, 2**62, 0], size=300),
    "single-row-categories": _rng.permutation(np.concatenate([np.arange(50, 60), [4] * 290])),
    "int32": _rng.integers(0, 12, size=300).astype(np.int32),
    "uint32": _rng.choice(np.array([7, 2**32 - 1, 1203, 3], dtype=np.uint32), size=300),
}


@pytest.mark.parametrize("name", sorted(_GROUPING_CASES))
def test_local_stats_same_bits_as_mask_loop(name):
    categories = _GROUPING_CASES[name]
    rng = np.random.default_rng(32)
    X = rng.normal(size=(categories.shape[0], 9)) * 10.0 ** rng.integers(-3, 4, size=9)
    before = X.copy()
    out = local_stats_from_arrays(X, categories)
    assert np.array_equal(X, before)
    reference = _mask_loop_reference(before, categories)
    assert list(out) == sorted(reference)
    for cat, (count, mean, cov) in reference.items():
        assert type(cat) is int
        assert out[cat].total == count and out[cat].windows == 1
        assert np.array_equal(out[cat].mean, mean)
        assert np.array_equal(out[cat].cov, cov)


def test_snapshot_reaches_module_window_kernel(monkeypatch):
    # Each window goes through the module-level kernel, so a wrapper
    # installed on the module (as a tracer does) sees every window. `add`
    # checked the rows, so the checked public function is not called again.
    windows, checks = [], []
    real, check = stats_module._window_stats, stats_module.as_batch
    monkeypatch.setattr(stats_module, "_window_stats",
                        lambda X, c: windows.append(X.shape[0]) or real(X, c))
    monkeypatch.setattr(stats_module, "as_batch",
                        lambda *args, **kw: checks.append(1) or check(*args, **kw))
    monkeypatch.setattr(stats_module, "local_stats_from_arrays", None)
    acc = EpochAccumulator(capacity=10, p=2)
    acc.add(np.ones((14, 2)), np.zeros(14, dtype=np.int64))
    acc.add(np.ones((11, 2)), np.ones(11, dtype=np.int64))
    acc.finalize()
    assert windows == [10, 10, 5]
    assert len(checks) == 2


def test_empty_batch_rejected():
    with pytest.raises(InputError):
        local_stats_from_arrays(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))


def test_mixed_dimension_batch_rejected():
    acc = EpochAccumulator(capacity=4, p=3)
    acc.add(np.zeros((1, 3)), [0])
    with pytest.raises(InputError):
        acc.add(np.zeros((1, 4)), [0])
    with pytest.raises(InputError):
        local_stats_from_arrays(np.zeros(3), [0, 0, 0])
    with pytest.raises(InputError):
        local_stats_from_arrays(np.zeros((2, 3, 4)), [0, 0])


# ------------------------------------------------------------------- merge


def test_merge_single_window_is_identity():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(6, 3))
    ls = local_stats_from_arrays(X, [2] * 6)[2]
    merged = merge_stats([ls])
    assert merged.total == 6
    assert merged.windows == 1
    assert np.array_equal(merged.mean, ls.mean)
    assert np.allclose(merged.cov, ls.cov, rtol=0, atol=1e-16)


def test_merge_equal_means_averages_covariances():
    # Two windows with identical means: the between-window term vanishes and
    # the pooled covariance is the count-weighted average of the window
    # covariances, (n1*S1 + n2*S2) / (n1 + n2).
    X1 = np.array([[-1.0, 0.0], [1.0, 0.0]])          # mean 0, cov diag(1, 0)
    X2 = np.array([[0.0, -2.0], [0.0, 2.0], [0.0, 0.0], [0.0, 0.0]])  # mean 0, cov diag(0, 2)
    w1 = local_stats_from_arrays(X1, [0, 0])[0]
    w2 = local_stats_from_arrays(X2, [0] * 4)[0]
    merged = merge_stats([w1, w2])
    expected = (2 * w1.cov + 4 * w2.cov) / 6
    assert np.array_equal(merged.mean, np.zeros(2))
    assert np.allclose(merged.cov, expected, rtol=0, atol=1e-15)
    mean_ref, cov_ref = two_pass_reference(np.vstack([X1, X2]))
    assert np.allclose(merged.cov, cov_ref, rtol=0, atol=1e-15)


def test_merge_three_windows_equals_pooled():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(30, 5)) * 2.0 - 0.7
    parts = [X[:4], X[4:17], X[17:]]
    windows = [local_stats_from_arrays(part, [1] * len(part))[1] for part in parts]
    merged = merge_stats(windows)
    mean_ref, cov_ref = two_pass_reference(X)
    assert merged.total == 30
    assert merged.windows == 3
    assert np.allclose(merged.mean, mean_ref, rtol=1e-12, atol=1e-15)
    assert rel_frobenius(merged.cov, cov_ref) < 1e-12


def test_merge_rejects_empty_and_mismatched_windows():
    rng = np.random.default_rng(13)
    a = local_stats_from_arrays(rng.normal(size=(2, 2)), [0, 0])[0]
    b = local_stats_from_arrays(rng.normal(size=(2, 3)), [0, 0])[0]
    with pytest.raises(InputError):
        merge_stats([])
    with pytest.raises(InputError, match="dimension mismatch"):
        merge_stats([a, b])
    with pytest.raises(InputError, match="count must be >= 1"):
        merge_stats([a, CategoryStats(total=0, mean=a.mean, cov=a.cov)])


def test_merge_result_is_symmetric():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(50, 8)) * rng.uniform(0.1, 10.0, size=8)
    windows = [
        local_stats_from_arrays(part, [0] * len(part))[0]
        for part in np.array_split(X, 4)
    ]
    merged = merge_stats(windows)
    assert np.array_equal(merged.cov, merged.cov.T)


def test_merge_exactness_randomized():
    # Merged statistics must agree with a direct pooled computation for
    # arbitrary window partitions; the merge identity is algebraically exact.
    rng = np.random.default_rng(15)
    for _ in range(30):
        p = int(rng.integers(1, 9))
        n = int(rng.integers(2, 200))
        k = int(rng.integers(1, min(7, n) + 1))
        X = rng.normal(size=(n, p)) * rng.uniform(0.01, 100.0)
        cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False)) if k > 1 else []
        parts = np.split(X, cuts)
        windows = [
            local_stats_from_arrays(part, [3] * len(part))[3]
            for part in parts
            if len(part)
        ]
        merged = merge_stats(windows)
        mean_ref, cov_ref = two_pass_reference(X)
        assert merged.total == n
        assert np.allclose(merged.mean, mean_ref, rtol=1e-10, atol=1e-12)
        assert rel_frobenius(merged.cov, cov_ref) < 1e-10


def test_merge_is_hierarchical():
    # merge(merge(A, B), C) == merge(A, B, C): merging is associative because
    # both sides equal the pooled statistics of the concatenated data.
    rng = np.random.default_rng(16)
    for _ in range(10):
        p = int(rng.integers(1, 6))
        parts = [rng.normal(size=(int(rng.integers(1, 40)), p)) for _ in range(3)]
        wins = [local_stats_from_arrays(x, [0] * len(x))[0] for x in parts]
        two_step = merge_stats([merge_stats(wins[:2]), wins[2]])
        one_step = merge_stats(wins)
        assert (two_step.total, two_step.windows) == (one_step.total, one_step.windows)
        assert np.allclose(two_step.mean, one_step.mean, rtol=1e-10, atol=1e-13)
        assert rel_frobenius(two_step.cov, one_step.cov) < 1e-10


def test_merge_is_permutation_invariant():
    rng = np.random.default_rng(17)
    parts = [rng.normal(size=(int(rng.integers(2, 30)), 4)) for _ in range(5)]
    wins = [local_stats_from_arrays(x, [0] * len(x))[0] for x in parts]
    base = merge_stats(wins)
    for _ in range(4):
        order = rng.permutation(5)
        shuffled = merge_stats([wins[i] for i in order])
        assert shuffled.total == base.total
        assert np.allclose(shuffled.mean, base.mean, rtol=1e-12, atol=1e-15)
        assert rel_frobenius(shuffled.cov, base.cov) < 1e-12


def test_merge_conserves_counts():
    rng = np.random.default_rng(18)
    counts = [int(rng.integers(1, 50)) for _ in range(6)]
    wins = [
        local_stats_from_arrays(rng.normal(size=(n, 3)), [0] * n)[0] for n in counts
    ]
    assert merge_stats(wins).total == sum(counts)


# ------------------------------------------------------------------- queue


def test_queue_flag_fires_exactly_at_capacity():
    # A window closes when the capacity-th row arrives, never earlier or
    # later: k single-row adds against capacity 3 give ceil(k/3) windows.
    windows = []
    for k in range(1, 8):
        acc = EpochAccumulator(capacity=3, p=2)
        for i in range(k):
            acc.add(np.full((1, 2), float(i)), [0])
        cs = acc.finalize().categories[0]
        assert cs.total == k
        windows.append(cs.windows)
    assert windows == [1, 1, 1, 2, 2, 2, 3]


def test_queue_flag_refires_after_reset():
    # Categories mark the windows: rows {0,1,2} and {3,4,5} close two full
    # windows and row 6 is the final partial one, so each category lies in
    # exactly one window.
    acc = EpochAccumulator(capacity=3, p=1)
    for i, cat in enumerate([0, 0, 0, 1, 1, 1, 2]):
        acc.add(column([float(i)]), [cat])
    stats = acc.finalize()
    assert {c: (cs.total, cs.windows) for c, cs in stats.categories.items()} == {
        0: (3, 1), 1: (3, 1), 2: (1, 1)
    }
    assert np.array_equal(stats.categories[1].mean, [4.0])


def test_queue_rejects_dimension_mismatch_and_bad_capacity():
    for capacity, p, message in [
        (0, 1, "queue capacity must be >= 1, got 0"),
        (2.5, 1, "queue capacity: expected an integer, got 2.5"),
        (True, 1, "queue capacity: expected an integer, got True"),
        ("3", 1, "queue capacity: expected an integer, got '3'"),
        (2, 0, "embedding dimension must be >= 1, got 0"),
        (2, 3.0, "embedding dimension: expected an integer, got 3.0"),
    ]:
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            EpochAccumulator(capacity=capacity, p=p)
    assert EpochAccumulator(capacity=np.int64(2), p=np.int64(3)).capacity == 2
    acc = EpochAccumulator(capacity=2, p=3)
    with pytest.raises(InputError):
        acc.add(np.zeros((1, 2)), [0])


def test_nothing_carries_over_between_epochs():
    acc = EpochAccumulator(capacity=4, p=1)
    acc.add(column([0.0, 1.0, 2.0]), [0, 1, 2])
    first = acc.finalize()
    assert {c: cs.total for c, cs in first.categories.items()} == {0: 1, 1: 1, 2: 1}
    # An epoch with no rows takes no window and sees nothing.
    assert acc.finalize().categories == {}
    # The next epoch covers only its own row.
    acc.add(column([3.0]), [0])
    second = acc.finalize()
    assert list(second.categories) == [0]
    cs = second.categories[0]
    assert (cs.total, cs.windows) == (1, 1)
    assert np.array_equal(cs.mean, [3.0])


def _three_epochs(d, p, seed):
    """Three epochs with N mod d != 0 in each; the last is shorter than d."""
    rng = np.random.default_rng(seed)
    return [
        (rng.normal(size=(n, p)), rng.integers(0, C, size=n))
        for n, C in ((237, 4), (180, 4), (3 * d // 5, 3))
    ]


def test_batch_split_is_invisible():
    # However the stream is cut into batches, the windows and the merged
    # statistics are bit-identical, and each epoch counts its own rows.
    d, p = 50, 3
    epochs = _three_epochs(d, p, seed=23)

    def run(sizes):
        acc = EpochAccumulator(capacity=d, p=p)
        out = []
        for X, cats in epochs:
            start, k = 0, 0
            while start < X.shape[0]:
                stop = start + sizes[k % len(sizes)]
                acc.add(X[start:stop], cats[start:stop])
                start, k = stop, k + 1
            out.append(acc.finalize())
        return out

    reference = run([max(X.shape[0] for X, _ in epochs)])
    for sizes in ([1], [64], [d + 7], [1, 64, d + 7]):
        for got, ref, (X, _) in zip(run(sizes), reference, epochs):
            assert got.p == ref.p
            assert list(got.categories) == list(ref.categories)
            assert sum(cs.total for cs in got.categories.values()) == X.shape[0]
            for cat, cs in ref.categories.items():
                g = got.categories[cat]
                assert (g.total, g.windows) == (cs.total, cs.windows)
                assert np.array_equal(g.mean, cs.mean)
                assert np.array_equal(g.cov, cs.cov)
    assert set(reference[-1].categories) == {0, 1, 2}


def test_epoch_windows_partition_distinct_rows():
    # Merged statistics of each epoch equal the pooled statistics of that
    # epoch's distinct rows: no row of a full window is counted again by the
    # final partial window, and no row of an earlier epoch is counted at all.
    d, p = 50, 3
    epochs = _three_epochs(d, p, seed=24)
    assert all(X.shape[0] % d != 0 for X, _ in epochs) and epochs[-1][0].shape[0] < d
    acc = EpochAccumulator(capacity=d, p=p)
    for X, cats in epochs:
        acc.add(X, cats)
        stats = acc.finalize()
        assert sum(cs.total for cs in stats.categories.values()) == X.shape[0]
        assert sorted(stats.categories) == np.unique(cats).tolist()
        for cat, cs in stats.categories.items():
            rows = X[cats == cat]
            mean_ref, cov_ref = two_pass_reference(rows)
            assert cs.total == rows.shape[0]
            assert np.allclose(cs.mean, mean_ref, rtol=1e-12, atol=1e-15)
            assert rel_frobenius(cs.cov, cov_ref) < 1e-12


def test_refilled_batch_buffer_leaves_open_window_unchanged():
    # A caller that refills one buffer between adds: the rows of the window
    # still open when `add` returns are the accumulator's own, so the
    # statistics are those of the rows streamed, not of the buffer's last fill.
    rng = np.random.default_rng(33)
    streamed = [rng.normal(size=(30, 3)) + k for k in range(4)]
    cats = np.arange(30) % 2
    buffer = np.empty((30, 3))
    acc = EpochAccumulator(capacity=100, p=3)
    for rows in streamed:
        buffer[:] = rows
        acc.add(buffer, cats)
    stats = acc.finalize()
    X, labels = np.concatenate(streamed), np.tile(cats, 4)
    for cat, cs in stats.categories.items():
        mean_ref, cov_ref = two_pass_reference(X[labels == cat])
        assert cs.total == 60
        assert np.allclose(cs.mean, mean_ref, rtol=1e-12, atol=1e-14)
        assert rel_frobenius(cs.cov, cov_ref) < 1e-12


def test_retained_memory_does_not_grow_with_window_count():
    # Each closed window is folded into one running (count, mean, cov) per
    # category, so the accumulator retains as much after 200 windows as
    # after 10, and `windows` counts the windows that held the category.
    d, p = 8, 16
    rng = np.random.default_rng(19)
    # Warm up, so numpy's lazy imports and caches are not counted.
    EpochAccumulator(capacity=d, p=p).add(rng.normal(size=(3 * d, p)), np.arange(3 * d) % 2)
    retained = {}
    for K in (10, 200):
        X = rng.normal(size=(K * d, p))
        cats = np.zeros((K, d), dtype=np.int64)
        cats[::2, ::2] = 1  # category 1 only in the even windows
        tracemalloc.start()
        try:
            acc = EpochAccumulator(capacity=d, p=p)
            acc.add(X, cats.reshape(-1))
            retained[K] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        stats = acc.finalize()
        assert stats.categories[0].windows == K
        assert stats.categories[1].windows == (K + 1) // 2
        assert stats.categories[0].total + stats.categories[1].total == K * d
    # Fewer bytes than two p x p float64 covariances.
    assert retained[200] - retained[10] < 2 * p * p * 8


# ----------------------------------------------------------- epoch finalize


def test_five_pushes_capacity_two_makes_three_windows():
    # 5 insertions against capacity 2: snapshots after records {0,1} and
    # {2,3}, plus a final partial window over the pending record {4}.
    acc = EpochAccumulator(capacity=2, p=1)
    acc.add(column(range(5)), [0] * 5)
    stats = acc.finalize()
    cs = stats.categories[0]
    assert cs.windows == 3
    assert cs.total == 5
    mean_ref, cov_ref = two_pass_reference(column(range(5)))
    assert np.allclose(cs.mean, mean_ref, rtol=1e-14, atol=1e-15)
    assert np.allclose(cs.cov, cov_ref, rtol=1e-14, atol=1e-15)


def test_exact_boundary_stream_is_duplicate_free():
    # When the stream length equals the capacity the final snapshot would
    # repeat the boundary snapshot verbatim; it is skipped, so the merged
    # output equals a direct full-data computation.
    rng = np.random.default_rng(19)
    X = rng.normal(size=(4, 3))
    acc = EpochAccumulator(capacity=4, p=3)
    acc.add(X, [1] * 4)
    stats = acc.finalize()
    cs = stats.categories[1]
    mean_ref, cov_ref = two_pass_reference(X)
    assert cs.windows == 1
    assert cs.total == 4
    assert np.allclose(cs.mean, mean_ref, rtol=1e-14, atol=1e-15)
    assert np.allclose(cs.cov, cov_ref, rtol=1e-14, atol=1e-15)


def test_window_count_floor_formula_when_not_divisible():
    # N insertions against capacity d with d not dividing N produce
    # floor(N/d) + 1 windows.
    for n, d, expected in [(10, 3, 4), (7, 2, 4), (5, 4, 2), (3, 5, 1)]:
        acc = EpochAccumulator(capacity=d, p=1)
        acc.add(column(range(n)), [0] * n)
        assert acc.finalize().categories[0].windows == expected, (n, d)


def test_finalize_merge_matches_window_multiset():
    # Snapshots cover {0,1,2}, {3,4,5}, {6,7,8} and the final partial window
    # {9}: the multiset of window rows is X itself, each row once.
    rng = np.random.default_rng(20)
    X = rng.normal(size=(10, 2))
    acc = EpochAccumulator(capacity=3, p=2)
    acc.add(X, [0] * 10)
    cs = acc.finalize().categories[0]
    assert (cs.total, cs.windows) == (10, 4)
    mean_ref, cov_ref = two_pass_reference(X)
    assert np.allclose(cs.mean, mean_ref, rtol=1e-12, atol=1e-15)
    assert rel_frobenius(cs.cov, cov_ref) < 1e-12


def test_stale_entries_of_unseen_category_are_ignored():
    # Epoch 1 fills a window with categories 0 and 1 exactly to capacity.
    # Epoch 2 adds one new category-0 record: it is the only record counted,
    # and category 1, which saw no records this epoch, is missing.
    acc = EpochAccumulator(capacity=4, p=1)
    acc.add(column([1.0, 2.0, 10.0, 12.0]), [0, 0, 1, 1])
    first = acc.finalize()
    assert set(first.categories) == {0, 1}
    acc.add(column([3.0]), [0])
    second = acc.finalize()
    assert set(second.categories) == {0}
    cs = second.categories[0]
    assert cs.total == 1
    assert np.allclose(cs.mean, [3.0])


def test_finalize_rejects_overflowing_statistics():
    # Finite records whose covariance overflows float64 in category 5; the
    # accumulator is still reset, so the next epoch starts clean.
    acc = EpochAccumulator(capacity=2, p=2)
    acc.add(np.array([[0.0, 1.0], [1e308, 2.0], [-1e308, 3.0], [2.0, 2.0]]), [1, 5, 5, 1])
    with pytest.raises(NumericalError, match="category 5:.*overflows"):
        acc.finalize()
    acc.add(np.array([[0.0, 1.0], [2.0, 3.0]]), [5, 5])
    assert acc.finalize().categories[5].total == 2


# -------------------------------------------------------------------- json


def test_global_stats_json_round_trip():
    rng = np.random.default_rng(21)
    acc = EpochAccumulator(capacity=5, p=3)
    acc.add(rng.normal(size=(12, 3)), np.arange(12) % 2)
    stats = acc.finalize()
    doc = global_stats_to_json(stats)
    back = global_stats_from_json(doc)
    assert back.p == stats.p
    assert set(back.categories) == set(stats.categories)
    for cat, cs in stats.categories.items():
        bs = back.categories[cat]
        assert bs.total == cs.total
        assert np.array_equal(bs.mean, cs.mean)
        assert np.array_equal(bs.cov, cs.cov)


def test_global_stats_from_json_rejects_malformed():
    with pytest.raises(InputError):
        global_stats_from_json({"categories": []})
    with pytest.raises(InputError):
        global_stats_from_json({"p": 2, "categories": [{"id": 0}]})
    with pytest.raises(InputError):
        global_stats_from_json(
            {"p": 2, "categories": [{"id": 0, "count": 1, "mean": [0.0], "cov_row_major": [0.0] * 4}]}
        )


def test_global_stats_from_json_rejects_duplicate_category():
    entry = {"id": 3, "count": 2, "mean": [0.0, 1.0], "cov_row_major": [1.0, 0.0, 0.0, 1.0]}
    with pytest.raises(InputError, match="more than once"):
        global_stats_from_json({"p": 2, "categories": [entry, dict(entry, count=5)]})


def test_global_stats_from_json_rejects_count_below_one():
    entry = {"id": 3, "count": 0, "mean": [0.0, 1.0], "cov_row_major": [1.0, 0.0, 0.0, 1.0]}
    with pytest.raises(InputError, match="count must be >= 1"):
        global_stats_from_json({"p": 2, "categories": [entry]})


# ------------------------------------------------------- statistics reader hook


def test_stats_entry_arrays_converts_entry_lists():
    entry = {"id": 3, "count": 2, "mean": [1, 2.5], "cov_row_major": [1.0, 0, 0, 4e-300]}
    out = stats_entry_arrays(entry)
    assert out is entry and (out["id"], out["count"]) == (3, 2)
    for key, values in (("mean", [1.0, 2.5]), ("cov_row_major", [1.0, 0.0, 0.0, 4e-300])):
        assert out[key].dtype == np.float64
        assert np.array_equal(out[key], values)
    assert stats_entry_arrays({"p": 2}) == {"p": 2}  # the document itself
    assert stats_entry_arrays({"mean": "text", "cov_row_major": 7}) == {
        "mean": "text", "cov_row_major": 7}


@pytest.mark.parametrize("bad", [
    [1.0, "a"],           # a string
    [1.0, [2.0, 3.0]],    # ragged
    [1.0, {"x": 1}],      # an object
    [10**400],            # an integer beyond float64
])
def test_stats_entry_arrays_leaves_unconvertible_values(bad):
    for key in ("mean", "cov_row_major"):
        entry = {"id": 0, key: bad}
        assert stats_entry_arrays(entry)[key] is bad
