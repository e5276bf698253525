"""Shrinkage covariance and per-category information amounts."""

import re

import numpy as np
import pytest

from infomargin.errors import InputError
from infomargin.info import (
    InfoAmountTable,
    ShrinkageSpec,
    info_table_from_json,
    info_table_to_json,
    information_amount,
    information_amount_from_embeddings,
    information_amounts_from_stats,
    shrink_covariance,
)
from infomargin.stats import CategoryStats, EpochAccumulator, GlobalStats


def closed_form_identical(p, m):
    """Information amount of m identical embeddings in dimension p.

    The population covariance is zero, every eigenvalue is lifted to the
    clip level (1 - sqrt(p/m))^2, and the log-det sum collapses to p equal
    terms.
    """
    lam = (1.0 - np.sqrt(p / m)) ** 2
    return 0.5 * p * np.log2(1.0 + lam)


# --------------------------------------------------------------- shrinkage


@pytest.mark.parametrize(
    "p,m,expected",
    [
        (4, 16, 0.25),   # (1 - sqrt(1/4))^2 = (1/2)^2
        (1, 4, 0.25),
        (2, 2, 0.0),     # p = m: clip level vanishes
        (16, 4, 1.0),    # m < p allowed: (1 - 2)^2
        (1, 1, 0.0),
    ],
)
def test_clip_level_closed_form(p, m, expected):
    assert ShrinkageSpec(p=p, m=m).lambda_minus == pytest.approx(expected, abs=1e-15)


def test_spec_rejects_nonpositive_sizes():
    with pytest.raises(InputError):
        ShrinkageSpec(p=0, m=5)
    with pytest.raises(InputError):
        ShrinkageSpec(p=3, m=0)


def test_shrink_zero_matrix_lifts_to_clip_level():
    spec = ShrinkageSpec(p=4, m=16)
    out = shrink_covariance(np.zeros((4, 4)), spec)
    assert np.allclose(out, 0.25 * np.eye(4), rtol=0, atol=1e-14)


def test_shrink_is_identity_when_spectrum_clears_clip():
    # Clip level for p=3, m=300 is (1 - 0.1)^2 = 0.81; eigenvalues 1, 2, 3
    # all clear it, so the matrix passes through unchanged.
    rng = np.random.default_rng(31)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    cov = Q @ np.diag([1.0, 2.0, 3.0]) @ Q.T
    cov = (cov + cov.T) / 2
    out = shrink_covariance(cov, ShrinkageSpec(p=3, m=300))
    assert np.allclose(out, cov, rtol=1e-10, atol=1e-12)


def test_shrink_clips_only_small_eigenvalues():
    spec = ShrinkageSpec(p=2, m=8)  # clip level (1 - 0.5)^2 = 0.25
    cov = np.diag([4.0, 0.01])
    out = shrink_covariance(cov, spec)
    assert np.allclose(np.sort(np.linalg.eigvalsh(out)), [0.25, 4.0], atol=1e-12)


def test_shrink_rejects_asymmetric_and_misshaped():
    spec = ShrinkageSpec(p=2, m=10)
    with pytest.raises(InputError):
        shrink_covariance(np.array([[1.0, 0.5], [0.2, 1.0]]), spec)
    with pytest.raises(InputError):
        shrink_covariance(np.eye(3), spec)
    with pytest.raises(InputError):
        shrink_covariance(np.ones((2, 3)), spec)


def test_shrink_rejects_clearly_negative_eigenvalue():
    spec = ShrinkageSpec(p=2, m=10)
    with pytest.raises(InputError):
        shrink_covariance(np.diag([1.0, -0.5]), spec)


def test_shrink_tolerates_tiny_negative_roundoff():
    spec = ShrinkageSpec(p=2, m=10)
    out = shrink_covariance(np.diag([1.0, -1e-8]), spec)
    lam = spec.lambda_minus
    assert np.allclose(np.sort(np.linalg.eigvalsh(out)), [lam, 1.0], atol=1e-12)


def test_shrink_output_symmetric_and_floor_respected():
    rng = np.random.default_rng(32)
    for _ in range(10):
        p = int(rng.integers(1, 8))
        m = int(rng.integers(1, 60))
        A = rng.normal(size=(p, max(p, 2)))
        cov = A @ A.T / A.shape[1]
        cov = (cov + cov.T) / 2
        spec = ShrinkageSpec(p=p, m=m)
        out = shrink_covariance(cov, spec)
        assert np.allclose(out, out.T, atol=1e-14)
        assert np.linalg.eigvalsh(out).min() >= spec.lambda_minus - 1e-10


# ------------------------------------------------------- information amount


def test_zero_information_for_zero_matrix():
    assert information_amount(np.zeros((3, 3))) == 0.0


@pytest.mark.parametrize("p", [1, 3, 8])
@pytest.mark.parametrize("s2", [0.25, 1.0, 4.0])
def test_isotropic_matrix_closed_form(p, s2):
    # det(I + s2*I) = (1 + s2)^p, so the amount is (p/2) * log2(1 + s2).
    expected = 0.5 * p * np.log2(1.0 + s2)
    assert information_amount(s2 * np.eye(p)) == pytest.approx(expected, rel=1e-14)


def test_unit_scalar_matrix_gives_half_bit():
    assert information_amount(np.array([[1.0]])) == pytest.approx(0.5, abs=1e-15)


def test_information_rejects_negative_eigenvalue():
    with pytest.raises(InputError):
        information_amount(np.diag([1.0, -0.5]))


def test_information_floors_roundoff_negatives():
    assert information_amount(np.diag([0.0, -1e-8])) == pytest.approx(0.0, abs=1e-8)


def test_pipeline_matches_manual_composition():
    rng = np.random.default_rng(33)
    X = rng.normal(size=(40, 5))
    mean = X.mean(axis=0)
    cov = (X - mean).T @ (X - mean) / X.shape[0]
    cov = (cov + cov.T) / 2
    manual = information_amount(shrink_covariance(cov, ShrinkageSpec(p=5, m=40)))
    assert information_amount_from_embeddings(X) == pytest.approx(manual, rel=1e-14)


def test_identical_embeddings_closed_form_grid():
    for p in (1, 2, 4, 8):
        for m in (1, 2, 3, 5, 10, 100):
            x = np.linspace(-1.0, 1.0, p)
            X = np.tile(x, (m, 1))
            got = information_amount_from_embeddings(X)
            assert got == pytest.approx(closed_form_identical(p, m), abs=1e-12), (p, m)


def test_identical_embeddings_p_equals_m_gives_zero():
    X = np.tile(np.array([3.0, -1.0, 2.0]), (3, 1))
    assert information_amount_from_embeddings(X) == 0.0


def test_scalar_pair_gives_half_bit():
    # {-1, +1} in one dimension: population variance 1, clip level
    # (1 - sqrt(1/2))^2 ~ 0.086 is inactive, so the amount is log2(2)/2.
    X = np.array([[-1.0], [1.0]])
    assert information_amount_from_embeddings(X) == pytest.approx(0.5, abs=1e-12)


def test_rotation_invariance():
    # The amount depends only on the covariance spectrum, so any orthogonal
    # change of basis leaves it unchanged.
    rng = np.random.default_rng(34)
    for _ in range(5):
        X = rng.normal(size=(20, 6)) * rng.uniform(0.2, 5.0, size=6)
        Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        a = information_amount_from_embeddings(X)
        b = information_amount_from_embeddings(X @ Q.T)
        assert b == pytest.approx(a, rel=1e-8)


def test_monotone_in_isotropic_spread():
    amounts = [information_amount(s2 * np.eye(4)) for s2 in (0.25, 1.0, 4.0, 16.0)]
    assert all(a < b for a, b in zip(amounts, amounts[1:]))


def test_gaussian_consistency_near_closed_form():
    # For an isotropic Gaussian with variance s2 and m = 50 * p samples the
    # estimate should sit within 5% of (p/2) * log2(1 + s2) in nearly every
    # draw. Sample sizes and seeds chosen so the sampling noise clears the
    # gate in at least 19 of 20 seeds for each variance.
    p, m = 8, 400
    for s2 in (1.0, 4.0):
        expected = 0.5 * p * np.log2(1.0 + s2)
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng([17, p, int(s2), seed])
            X = rng.normal(scale=np.sqrt(s2), size=(m, p))
            got = information_amount_from_embeddings(X)
            if abs(got - expected) / expected < 0.05:
                hits += 1
        assert hits >= 19, (s2, hits)


def test_streaming_stats_agree_with_direct_amount():
    # Pushing the rows through the windowed queue and reading the amount
    # from the merged statistics must match the direct computation when the
    # stream length is a multiple of the capacity (no window overlap).
    rng = np.random.default_rng(35)
    X = rng.normal(size=(120, 5)) * np.array([3.0, 1.0, 0.5, 2.0, 1.5])
    acc = EpochAccumulator(capacity=30, p=5)
    acc.add(X, np.zeros(120, dtype=np.int64))
    stats = acc.finalize()
    table = information_amounts_from_stats(stats)
    direct = information_amount_from_embeddings(X)
    assert table.amounts[0] == pytest.approx(direct, rel=1e-8)


def test_amount_from_stats_uses_merged_count_for_clip():
    # Signed one-hot stream: the merged covariance is exactly I/4, whose
    # eigenvalues all sit below the clip level for the MERGED count
    # (1 - sqrt(4/400))^2 = 0.81, so every eigenvalue is lifted and the
    # amount is deterministically 2 * log2(1.81). A per-window count
    # (m = 100, clip 0.64) would give a different value, so this pins the
    # clip to the merged total.
    acc = EpochAccumulator(capacity=100, p=4)
    i = np.arange(400)
    sign = np.where((i // 4) % 2 == 0, 1.0, -1.0)
    acc.add(sign[:, None] * np.eye(4)[i % 4], np.zeros(400, dtype=np.int64))
    stats = acc.finalize()
    cs = stats.categories[0]
    assert cs.total == 400
    assert np.allclose(cs.cov, np.eye(4) / 4, atol=1e-12)
    table = information_amounts_from_stats(stats, epoch=3)
    assert table.epoch == 3
    expected = 0.5 * 4 * np.log2(1.0 + 0.81)
    assert table.amounts[0] == pytest.approx(expected, rel=1e-12)


def random_stats(rng, p, counts):
    """GlobalStats with one random PSD covariance of rank <= m per count m."""
    categories = {}
    for cat, m in enumerate(counts):
        A = rng.normal(size=(p, m)) * rng.uniform(0.1, 3.0, size=(p, 1))
        cov = A @ A.T / m
        categories[cat] = CategoryStats(total=m, mean=np.zeros(p), cov=0.5 * (cov + cov.T))
    return GlobalStats(p=p, categories=categories)


@pytest.mark.parametrize("p,counts", [
    (6, [1, 2, 3, 5]),       # m < p, including a single sample
    (6, [6, 6]),             # m = p: the clip level vanishes
    (6, [7, 40, 500]),       # m > p
    (1, [1, 2, 9]),
])
def test_amounts_from_stats_match_shrink_then_score(p, counts):
    # One eigvalsh of the covariance, clipped, equals the two-step route
    # through the rebuilt shrunk matrix to round-off.
    stats = random_stats(np.random.default_rng([36, p, len(counts)]), p, counts)
    table = information_amounts_from_stats(stats)
    for cat, cs in stats.categories.items():
        two_step = information_amount(shrink_covariance(cs.cov, ShrinkageSpec(p=p, m=cs.total)))
        assert table.amounts[cat] == pytest.approx(two_step, rel=1e-12, abs=0), (cat, cs.total)


@pytest.mark.parametrize("cov", [
    np.array([[1.0, 0.5], [0.2, 1.0]]),       # asymmetric
    np.diag([1.0, -0.5]),                     # clearly non-PSD
    np.array([[1.0, np.nan], [np.nan, 1.0]]),  # non-finite
    np.eye(3),                                # wrong p
])
def test_amounts_from_stats_reject_malformed_covariance(cov):
    stats = GlobalStats(p=2, categories={0: CategoryStats(total=5, mean=np.zeros(2), cov=cov)})
    with pytest.raises(InputError):
        information_amounts_from_stats(stats)


def test_refresh_makes_one_eigvalsh_per_category(monkeypatch):
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    stats = random_stats(np.random.default_rng(37), 4, [1, 3, 4, 20, 100])
    information_amounts_from_stats(stats)
    assert calls == {"eigh": 0, "eigvalsh": 5}
    information_amount_from_embeddings(np.random.default_rng(38).normal(size=(10, 4)))
    assert calls == {"eigh": 0, "eigvalsh": 6}


def test_embeddings_input_validation():
    with pytest.raises(InputError):
        information_amount_from_embeddings(np.zeros((0, 3)))
    with pytest.raises(InputError):
        information_amount_from_embeddings(np.array([[1.0, np.inf]]))
    with pytest.raises(InputError):
        information_amount_from_embeddings(np.zeros(5))  # not 2-D


# -------------------------------------------------------------------- json


def test_info_table_json_round_trip():
    table = InfoAmountTable([3, 0], [1.5, 0.25], epoch=2)
    doc = info_table_to_json(table)
    assert doc == {"epoch": 2, "info": {"0": 0.25, "3": 1.5}}
    back = info_table_from_json(doc)
    assert back.epoch == 2
    assert back.ids.tolist() == [0, 3] and back.amounts.tolist() == [0.25, 1.5]


def test_info_table_ordering_and_arrays():
    table = InfoAmountTable([5, 2], [1.0, 3.0], epoch=0)
    cats, vals = table.as_arrays()
    assert np.array_equal(cats, [2, 5])
    assert np.array_equal(vals, [3.0, 1.0])


def test_info_table_sorts_rows_by_id():
    table = InfoAmountTable(np.array([7, 1, 4]), np.array([0.5, 2.0, 1.25]), epoch=3)
    assert table.ids.dtype == np.int64 and table.amounts.dtype == np.float64
    assert table.ids.tolist() == [1, 4, 7]
    assert table.amounts.tolist() == [2.0, 1.25, 0.5]
    assert table.epoch == 3


def test_info_table_arrays_are_read_only_copies():
    ids, amounts = np.array([0, 1]), np.array([1.0, 2.0])
    table = InfoAmountTable(ids, amounts)
    amounts[0] = -5.0
    assert table.amounts.tolist() == [1.0, 2.0]
    for arr in (table.ids, table.amounts):
        with pytest.raises(ValueError):
            arr[0] = 3


@pytest.mark.parametrize("ids, amounts, message", [
    ([2, 0, 2], [1.0, 1.0, 1.0], "category 2 appears more than once"),
    ([0, -1], [1.0, 1.0], "category id must be >= 0, got -1"),
    ([0, 3], [1.0, -0.5], "category 3: information amount must be >= 0, got -0.5"),
    ([0, 1], [np.nan, 1.0], "category 0: information amount must be finite, got nan"),
    ([0, 1], [1.0, np.inf], "category 1: information amount must be finite, got inf"),
    ([0, 1], [1.0, 2.0, 3.0], "must be matching 1-D arrays"),
    ([[0, 1]], [[1.0, 2.0]], "must be matching 1-D arrays"),
    ([0.0, 1.0], [1.0, 2.0], "1-D arrays of int64 ids"),
], ids=["repeated", "negative-id", "negative-amount", "nan", "inf", "length", "2-d",
        "float-ids"])
def test_info_table_rejects_bad_rows(ids, amounts, message):
    with pytest.raises(InputError, match=re.escape(message)):
        InfoAmountTable(np.array(ids), np.array(amounts))


def test_info_table_json_rejects_bad_documents():
    with pytest.raises(InputError):
        info_table_from_json({"epoch": 0})
    with pytest.raises(InputError):
        info_table_from_json({"epoch": 0, "info": {"0": -1.0}})
    with pytest.raises(InputError):
        info_table_from_json({"epoch": 0, "info": {"x": 1.0}})


# ----------------------------------------------------------- symmetry check


def _symmetric_cov(seed, p=7):
    A = np.random.default_rng(seed).normal(size=(p, 3 * p))
    cov = A @ A.T / A.shape[1]
    return 0.5 * (cov + cov.T)


def test_exactly_symmetric_covariance_is_used_as_given():
    from infomargin.info import _checked_symmetric

    cov = _symmetric_cov(33)
    assert _checked_symmetric(cov) is cov
    # The amounts equal those read off the explicitly symmetrized matrix.
    sym = 0.5 * (cov + cov.T)
    assert information_amount(cov) == float(np.sum(np.log2(1.0 + np.linalg.eigvalsh(sym))) / 2)
    spec = ShrinkageSpec(p=7, m=5)
    floored = np.maximum(np.linalg.eigvalsh(sym), spec.lambda_minus)
    stats = GlobalStats(p=7, categories={0: CategoryStats(total=5, mean=np.zeros(7), cov=cov)})
    assert information_amounts_from_stats(stats).amounts[0] == float(
        np.sum(np.log2(1.0 + floored)) / 2
    )


def test_rounding_sized_asymmetry_is_still_symmetrized():
    from infomargin.info import _checked_symmetric

    cov = _symmetric_cov(34)
    cov[0, 1] += 1e-12
    out = _checked_symmetric(cov)
    assert out is not cov
    assert np.array_equal(out, 0.5 * (cov + cov.T))
    # Signed zeros compare equal but differ in bits: symmetrized too.
    signed = np.array([[1.0, 0.0], [-0.0, 1.0]])
    assert _checked_symmetric(signed) is not signed
    cov[0, 1] += 1e-3
    with pytest.raises(InputError, match="not symmetric"):
        _checked_symmetric(cov)
