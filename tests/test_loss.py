"""Normalization, margin construction, and the three losses.

High-precision reference values in this file were computed with mpmath at
60 decimal digits from the formulas restated in the relevant docstrings,
then rounded to the nearest float64.
"""

import warnings

import numpy as np
import pytest

from infomargin.errors import InputError, NumericalError
from infomargin.info import InfoAmountTable
from infomargin.loss import (
    IBAR_MODES,
    INFO_VARIANTS,
    MARGIN_DIRECTIONS,
    MARGIN_VARIANTS,
    CosineClassifier,
    MarginMatrix,
    build_margins,
    ce_batch,
    igam_batch,
    margins_from_json,
    margins_to_json,
    normalize_info,
    normface_batch,
)

# Shared fixture for the frozen single-sample loss values below; a single
# sample is a one-row batch.
_X4 = np.array([[0.3, -1.2, 0.7, 2.0]])
_W34 = np.array(
    [
        [1.0, 0.2, -0.3, 0.5],
        [-0.7, 1.1, 0.4, -0.2],
        [0.1, -0.6, 0.9, 1.3],
    ]
)
_M3 = np.zeros((3, 3))
_M3[0] = [0.0, 0.25, 0.6]
_S = 7.5


def make_clf(W, s=_S):
    return CosineClassifier(weights=np.array(W, dtype=np.float64), scale=s)


# ----------------------------------------------------------- normalization


# Closed form for equal inputs under the double-exp map with i_bar = sum:
# x_i = C**-1.5 for every i, so I' = exp(exp(x) - x) + 1.
_EQUAL_NORMALIZED = {
    2: 3.9170289892962418,
    3: 3.7725456639980724,
    5: 3.7295096346303282,
    10: 3.7196557570606479,
}


@pytest.mark.parametrize("C,expected", sorted(_EQUAL_NORMALIZED.items()))
def test_equal_amounts_normalize_to_known_value(C, expected):
    norm = normalize_info(np.full(C, 1.7))
    assert norm.degenerate is False
    assert np.allclose(norm.normalized, expected, rtol=1e-12, atol=0)
    assert norm.normalized.std() == pytest.approx(0.0, abs=1e-15)


def test_equal_amounts_value_independent_of_level():
    # x_i depends only on I_i / i_bar, so any common positive level gives
    # the same normalized output.
    a = normalize_info(np.full(5, 0.01)).normalized
    b = normalize_info(np.full(5, 250.0)).normalized
    assert np.allclose(a, b, rtol=1e-12)


def test_normalized_amounts_exceed_one():
    rng = np.random.default_rng(41)
    for _ in range(20):
        C = int(rng.integers(2, 12))
        I = rng.uniform(0.0, 5.0, size=C)
        norm = normalize_info(I)
        assert np.all(norm.normalized > 1.0)
        assert np.all(np.isfinite(norm.normalized))


def test_normalization_preserves_order():
    rng = np.random.default_rng(42)
    for variant in INFO_VARIANTS:
        for ibar in IBAR_MODES:
            I = np.sort(rng.uniform(0.1, 4.0, size=6))
            I += np.arange(6) * 1e-3  # force strict increase
            norm = normalize_info(I, variant=variant, ibar=ibar)
            assert np.all(np.diff(norm.normalized) > 0), (variant, ibar)


def test_degenerate_all_zero_input_flagged():
    norm = normalize_info(np.zeros(4))
    assert norm.degenerate is True
    assert norm.i_bar == 0.0
    # x_i = 0 by convention: I' = C*e/(C*1) + 1 = e + 1 for every class.
    assert np.allclose(norm.normalized, np.e + 1.0, rtol=1e-15)


def test_table_input_is_sorted_by_category_id():
    table = InfoAmountTable([5, 2], [1.0, 3.0], epoch=0)
    norm = normalize_info(table)
    assert np.array_equal(norm.raw, [3.0, 1.0])


def test_ibar_modes_sum_and_mean():
    I = np.array([1.0, 2.0, 3.0])
    assert normalize_info(I, ibar="sum").i_bar == 6.0
    assert normalize_info(I, ibar="mean").i_bar == 2.0


def test_single_exp_variant_matches_direct_formula():
    rng = np.random.default_rng(43)
    I = rng.uniform(0.1, 3.0, size=5)
    norm = normalize_info(I, variant="softmax-single-exp")
    x = I / (I.sum() * np.sqrt(5))
    expected = 5 * np.exp(x) / np.exp(x).sum() + 1.0
    assert np.allclose(norm.normalized, expected, rtol=1e-14)


def test_normalize_input_validation():
    with pytest.raises(InputError):
        normalize_info(np.array([1.0]))  # fewer than two categories
    with pytest.raises(InputError):
        normalize_info(np.array([1.0, -0.1]))
    with pytest.raises(InputError):
        normalize_info(np.array([1.0, np.nan]))
    with pytest.raises(InputError):
        normalize_info(np.array([1.0, 2.0]), variant="bogus")
    with pytest.raises(InputError):
        normalize_info(np.array([1.0, 2.0]), ibar="median")


def test_double_exp_overflow_raises_numerical_error():
    # One dominant amount with ibar = "mean" drives x to ~7.07 and
    # exp(x) ~ 1177 past the exp argument limit.
    I = np.concatenate([[100.0], np.full(49, 1e-6)])
    with pytest.raises(NumericalError):
        normalize_info(I, ibar="mean")
    # The single-exp variant has no inner exponential and survives.
    norm = normalize_info(I, variant="softmax-single-exp", ibar="mean")
    assert np.all(np.isfinite(norm.normalized))


# ----------------------------------------------------------------- margins


def test_equal_normalized_amounts_give_exact_zero_margins():
    norm = normalize_info(np.full(6, 2.0))
    margins = build_margins(norm)
    assert np.array_equal(margins.m, np.zeros((6, 6)))


def test_clamped_margins_zero_out_poor_targets():
    m = build_margins(np.array([1.0, 2.0])).m
    assert m[0, 1] == 0.0  # target poorer than rival: clamped to zero
    assert m[1, 0] == pytest.approx(np.log(2.0) / np.pi, rel=1e-15)
    assert m[0, 0] == 0.0 and m[1, 1] == 0.0


def test_ratio_e_margin_is_one_over_pi():
    m = build_margins(np.array([np.e, 1.0])).m
    assert m[0, 1] == pytest.approx(1.0 / np.pi, rel=1e-14)
    assert m[1, 0] == 0.0


def test_signed_variant_is_antisymmetric():
    rng = np.random.default_rng(44)
    norm = rng.uniform(1.1, 9.0, size=5)
    m = build_margins(norm, variant="signed").m
    assert np.allclose(m, -m.T, atol=1e-15)
    assert (m < 0).any()
    np.testing.assert_array_equal(np.diag(m), np.zeros(5))


def test_rival_direction_transposes_clamped_margins():
    rng = np.random.default_rng(45)
    norm = rng.uniform(1.1, 9.0, size=7)
    target = build_margins(norm, direction="target").m
    rival = build_margins(norm, direction="rival").m
    assert np.array_equal(rival, target.T)


def test_rival_direction_negates_signed_margins():
    rng = np.random.default_rng(46)
    norm = rng.uniform(1.1, 9.0, size=4)
    signed = build_margins(norm, variant="signed", direction="target").m
    rival = build_margins(norm, variant="signed", direction="rival").m
    assert np.array_equal(rival, -signed)


def test_clamped_margin_positive_iff_target_richer():
    rng = np.random.default_rng(47)
    norm = rng.uniform(1.1, 9.0, size=6)
    m = build_margins(norm).m
    for i in range(6):
        for j in range(6):
            if i == j:
                assert m[i, j] == 0.0
            elif norm[i] > norm[j]:
                assert m[i, j] > 0.0
            else:
                assert m[i, j] == 0.0


def test_build_margins_validation():
    with pytest.raises(InputError):
        build_margins(np.array([2.0]))
    with pytest.raises(InputError):
        build_margins(np.array([2.0, 0.0]))  # must be > 0
    with pytest.raises(InputError):
        build_margins(np.array([2.0, 3.0]), variant="soft")
    with pytest.raises(InputError):
        build_margins(np.array([2.0, 3.0]), direction="both")
    assert MARGIN_VARIANTS == ("clamped", "signed")
    assert MARGIN_DIRECTIONS == ("target", "rival")


def test_margin_matrix_validation_and_zeros():
    with pytest.raises(InputError):
        MarginMatrix(np.zeros((2, 3)))
    with pytest.raises(InputError):
        MarginMatrix(np.array([[0.0, np.inf], [0.0, 0.0]]))
    z = MarginMatrix.zeros(4)
    assert z.C == 4
    assert np.array_equal(z.m, np.zeros((4, 4)))


def test_margins_json_round_trip():
    m = build_margins(np.array([1.5, 3.0, 2.0]))
    doc = margins_to_json(m)
    assert doc["C"] == 3 and len(doc["margins_row_major"]) == 9
    back = margins_from_json(doc)
    assert np.array_equal(back.m, m.m)
    with pytest.raises(InputError):
        margins_from_json({"C": 2, "margins_row_major": [0.0] * 3})
    with pytest.raises(InputError):
        margins_from_json({"C": 2})


@pytest.mark.parametrize("flat", [
    [0, True, 0.25, 0],  # numpy would promote the boolean to 1.0
    [0.0, 0.5, False, 0.0],
])
def test_margins_from_json_rejects_booleans_among_numbers(flat):
    with pytest.raises(InputError, match="^margins_row_major: expected a list of numbers$"):
        margins_from_json({"C": 2, "margins_row_major": flat})


# -------------------------------------------------------------- classifier


def test_classifier_construction_and_predict():
    clf = make_clf([[1.0, 0.0], [0.0, 1.0]], s=10.0)
    assert clf.n_classes == 2 and clf.dim == 2
    X = np.array([[2.0, 0.1], [-0.1, 3.0]])
    assert np.array_equal(clf.predict(X), [0, 1])
    cos = clf.cosines(X)
    assert cos.shape == (2, 2)
    assert np.all(cos <= 1.0) and np.all(cos >= -1.0)


def test_classifier_tie_breaks_to_first_class():
    clf = make_clf([[1.0, 0.0], [0.0, 1.0]])
    assert clf.predict(np.array([[1.0, 1.0]]))[0] == 0


def test_classifier_rejects_bad_inputs():
    with pytest.raises(InputError):
        CosineClassifier(weights=np.zeros(3))  # not 2-D
    with pytest.raises(InputError):
        make_clf([[1.0, 0.0], [0.0, 1.0]], s=0.0)
    clf = make_clf([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(InputError):
        clf.cosines(np.array([[1.0, 1.0]]))  # zero-norm weight row
    clf2 = make_clf([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(InputError):
        clf2.cosines(np.array([[0.0, 0.0]]))  # zero-norm feature


# ------------------------------------------------------------ frozen values


def test_igam_single_sample_frozen_value():
    out = igam_batch(make_clf(_W34), _X4, [0], _M3)
    assert out.losses[0] == pytest.approx(2.5733235750929126, rel=1e-10)
    assert out.saturated == 0


def test_normface_single_sample_frozen_value():
    out = normface_batch(make_clf(_W34), _X4, [0])
    assert out.losses[0] == pytest.approx(4.9764935463184747, rel=1e-10)


def test_ce_single_sample_frozen_value():
    out = ce_batch(make_clf(_W34), _X4, [0])
    assert out.losses[0] == pytest.approx(3.1762215085488919, rel=1e-10)


def test_margins_lower_the_loss_against_rivals():
    # Widening rival angles can only shrink rival logits, so the margined
    # loss sits at or below the margin-free one, strictly here.
    igam = igam_batch(make_clf(_W34), _X4, [0], _M3).losses[0]
    plain = normface_batch(make_clf(_W34), _X4, [0]).losses[0]
    assert igam < plain


# -------------------------------------------------------------- degeneracy


def test_zero_margins_reduce_to_normface_bit_exact():
    rng = np.random.default_rng(48)
    for _ in range(10):
        C = int(rng.integers(2, 8))
        p = int(rng.integers(2, 10))
        n = int(rng.integers(1, 9))
        clf = make_clf(rng.normal(size=(C, p)), s=float(rng.uniform(1.0, 40.0)))
        X = rng.normal(size=(n, p))
        y = rng.integers(0, C, size=n)
        a = igam_batch(clf, X, y, MarginMatrix.zeros(C))
        b = normface_batch(clf, X, y)
        assert np.array_equal(a.losses, b.losses)
        assert np.array_equal(a.grad_inputs, b.grad_inputs)
        assert np.array_equal(a.grad_weights, b.grad_weights)
        assert a.saturated == b.saturated == 0


def test_uniform_cosines_give_log_C():
    # All weight rows identical: every cosine coincides, margins are zero,
    # and the softmax is uniform, so the loss is exactly ln C.
    for C in (2, 5):
        W = np.tile(np.array([0.3, -0.8, 0.44]), (C, 1))
        clf = make_clf(W, s=12.0)
        out = igam_batch(clf, np.array([[1.0, 0.2, -0.5]]), [1], np.zeros((C, C)))
        assert out.losses[0] == pytest.approx(np.log(C), rel=1e-14)


def test_label_row_margin_entry_is_ignored():
    # Only rival columns of the label's margin row matter; a poisoned
    # diagonal entry must not change anything.
    dirty = _M3.copy()
    dirty[0, 0] = 0.9
    a = igam_batch(make_clf(_W34), _X4, [0], _M3)
    b = igam_batch(make_clf(_W34), _X4, [0], dirty)
    assert np.array_equal(a.losses, b.losses)
    assert np.array_equal(a.grad_inputs, b.grad_inputs)


# ------------------------------------------------------------- invariances


def test_feature_scale_invariance():
    rng = np.random.default_rng(49)
    clf = make_clf(rng.normal(size=(4, 6)))
    x = rng.normal(size=(1, 6))
    M = rng.uniform(0.0, 0.4, size=(4, 4))
    np.fill_diagonal(M, 0.0)
    base = igam_batch(clf, x, [2], M)
    for alpha in (1e-3, 0.5, 7.0, 1e3):
        out = igam_batch(clf, alpha * x, [2], M)
        assert out.losses[0] == pytest.approx(base.losses[0], rel=1e-10)
        assert np.allclose(out.grad_inputs, base.grad_inputs / alpha, rtol=1e-10)
        assert np.allclose(out.grad_cos, base.grad_cos, rtol=1e-10)


def test_weight_row_scale_invariance():
    rng = np.random.default_rng(50)
    W = rng.normal(size=(3, 5))
    x = rng.normal(size=(1, 5))
    M = rng.uniform(0.0, 0.3, size=(3, 3))
    base = igam_batch(make_clf(W), x, [1], M)
    scales = np.array([0.01, 3.0, 40.0])
    out = igam_batch(make_clf(W * scales[:, None]), x, [1], M)
    assert out.losses[0] == pytest.approx(base.losses[0], rel=1e-10)
    # dL/dW_j shrinks by the row's scale factor.
    assert np.allclose(out.grad_weights, base.grad_weights / scales[:, None], rtol=1e-10)


def test_loss_non_increasing_in_margin():
    rng = np.random.default_rng(51)
    clf = make_clf(rng.normal(size=(3, 4)))
    x = rng.normal(size=(1, 4))
    losses = []
    for m in (0.0, 0.1, 0.2, 0.4):
        M = np.zeros((3, 3))
        M[1, :] = m
        M[1, 1] = 0.0
        losses.append(igam_batch(clf, x, [1], M).losses[0])
    assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))


# --------------------------------------------------- saturation and clamping


def test_saturated_cosine_counted_and_gradient_zeroed():
    # Feature exactly aligned with a margin-active rival: cos = 1, the
    # angle derivative is unbounded, so the constant branch is used.
    w_rival = np.array([0.6, 0.8])
    W = np.stack([np.array([1.0, 0.0]), w_rival])
    clf = make_clf(W, s=5.0)
    M = np.array([[0.0, 0.3], [0.0, 0.0]])
    out = igam_batch(clf, 2.0 * w_rival[None, :], [0], M)
    assert out.saturated == 1
    assert out.grad_cos[0, 1] == 0.0
    # The logit still uses the angle-addition value cos(0 + 0.3).
    assert out.logits[0, 1] == pytest.approx(5.0 * np.cos(0.3), rel=1e-12)


def test_margined_angle_past_pi_clamps_logit():
    # theta ~ 2.9 rad plus margin 0.35 exceeds pi: the rival logit pins at
    # -s with zero gradient instead of folding back.
    theta = 2.9
    w_rival = np.array([1.0, 0.0])
    x = np.array([[np.cos(theta), np.sin(theta)]])
    W = np.stack([np.array([0.0, 1.0]), w_rival])
    clf = make_clf(W, s=5.0)
    M = np.array([[0.0, 0.35], [0.0, 0.0]])
    out = igam_batch(clf, x, [0], M)
    assert out.logits[0, 1] == -5.0
    assert out.grad_cos[0, 1] == 0.0
    assert out.saturated == 0  # clamped, not saturated
    assert out.clamped == 1
    assert igam_batch(clf, x, [0], 0.1 * M).clamped == 0


def test_ce_saturates_to_zero_loss():
    clf = make_clf([[100.0, 0.0], [0.0, 1.0]])
    out = ce_batch(clf, np.array([[1.0, 0.0]]), [0])
    assert out.losses[0] < 1e-12
    assert np.isfinite(out.losses[0])


# --------------------------------------------------------------- gradients


def test_zero_margin_grad_cos_matches_softmax_identity():
    # With no margins dL/dcos_j = s * (softmax(s cos)_j - [j == label]).
    rng = np.random.default_rng(52)
    clf = make_clf(rng.normal(size=(5, 7)), s=9.0)
    x = rng.normal(size=(1, 7))
    out = normface_batch(clf, x, [3])
    cos = clf.cosines(x)[0]
    z = 9.0 * cos
    p = np.exp(z - z.max())
    p /= p.sum()
    p[3] -= 1.0
    assert np.allclose(out.grad_cos[0], 9.0 * p, rtol=1e-12, atol=1e-15)


def test_ce_gradient_matches_softmax_outer_product():
    rng = np.random.default_rng(53)
    clf = make_clf(rng.normal(size=(4, 6)))
    x = rng.normal(size=6)
    out = ce_batch(clf, x[None, :], [2])
    z = clf.weights @ x
    p = np.exp(z - z.max())
    p /= p.sum()
    p[2] -= 1.0
    assert np.allclose(out.grad_weights, np.outer(p, x), rtol=1e-12, atol=1e-15)
    assert np.allclose(out.grad_inputs[0], clf.weights.T @ p, rtol=1e-12, atol=1e-15)


def central_diff(f, x, h=1e-6):
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f()
        flat[i] = orig - h
        dn = f()
        flat[i] = orig
        g.reshape(-1)[i] = (up - dn) / (2 * h)
    return g


@pytest.mark.parametrize("seed", range(8))
def test_igam_gradients_match_finite_differences(seed):
    rng = np.random.default_rng([812, 9000 + seed])
    C = int(rng.integers(2, 7))
    p = int(rng.integers(2, 9))
    s = float(rng.uniform(1.0, 8.0))
    M = rng.uniform(0.0, 0.35, size=(C, C))
    np.fill_diagonal(M, 0.0)
    label = int(rng.integers(0, C))
    while True:
        x = rng.normal(size=p)
        W = rng.normal(size=(C, p))
        clf = CosineClassifier(weights=W, scale=s)
        cos = clf.cosines(x[None, :])[0]
        theta = np.arccos(cos)
        if np.all(np.abs(cos) < 0.95) and np.all(theta + M[label] < np.pi - 0.1):
            break
    def loss():
        return igam_batch(CosineClassifier(W, s), x[None, :], [label], M).losses[0]

    out = igam_batch(clf, x[None, :], [label], M)
    fd_x = central_diff(loss, x)
    fd_W = central_diff(loss, W)
    # rtol 1e-4 with a 1e-7 absolute floor for entries drowned in the
    # finite-difference roundoff (h = 1e-6).
    assert np.all(np.abs(out.grad_inputs[0] - fd_x) <= 1e-4 * np.abs(fd_x) + 1e-7)
    assert np.all(np.abs(out.grad_weights - fd_W) <= 1e-4 * np.abs(fd_W) + 1e-7)


# ------------------------------------------------------------------ batches


def test_batch_agrees_with_per_sample_calls():
    rng = np.random.default_rng(54)
    C, p, n = 4, 5, 7
    clf = make_clf(rng.normal(size=(C, p)))
    M = rng.uniform(0.0, 0.3, size=(C, C))
    np.fill_diagonal(M, 0.0)
    X = rng.normal(size=(n, p))
    y = rng.integers(0, C, size=n)
    batch = igam_batch(clf, X, y, M)
    singles = [igam_batch(clf, X[k:k + 1], y[k:k + 1], M) for k in range(n)]
    assert np.allclose(batch.losses, [o.losses[0] for o in singles], rtol=1e-14)
    assert batch.mean == pytest.approx(np.mean([o.losses[0] for o in singles]), rel=1e-14)
    # Batch gradients are of the mean loss: each row is the per-sample
    # feature gradient divided by n, and grad_weights is the average.
    for k in range(n):
        assert np.allclose(batch.grad_inputs[k], singles[k].grad_inputs[0] / n, rtol=1e-12)
    avg_W = np.mean([o.grad_weights for o in singles], axis=0)
    assert np.allclose(batch.grad_weights, avg_W, rtol=1e-12, atol=1e-15)


def test_batch_shape_and_label_validation():
    clf = make_clf([[1.0, 0.0], [0.0, 1.0]])
    M = MarginMatrix.zeros(2)
    with pytest.raises(InputError):
        igam_batch(clf, np.zeros((3, 3)), [0, 1, 0], M)  # wrong feature dim
    with pytest.raises(InputError):
        igam_batch(clf, np.ones((2, 2)), [0], M)  # label count mismatch
    with pytest.raises(InputError):
        igam_batch(clf, np.ones((2, 2)), [0, 2], M)  # label out of range
    with pytest.raises(InputError):
        igam_batch(clf, np.ones((2, 2)), [0, 1], np.zeros((3, 3)))  # margin shape


def test_margin_matrix_values_cannot_change_after_the_check():
    raw = np.zeros((2, 2))
    M = MarginMatrix(raw)
    with pytest.raises(ValueError):
        M.m[0, 1] = np.nan
    raw[0, 1] = np.nan  # the caller's array stays theirs
    assert M.m[0, 1] == 0.0


def test_raw_margin_array_is_checked():
    # A raw array is validated as a MarginMatrix would be; only a
    # MarginMatrix argument skips the scan.
    clf = make_clf([[1.0, 0.0], [0.0, 1.0]])
    X = np.ones((2, 2))
    with pytest.raises(InputError, match="non-finite margin values"):
        igam_batch(clf, X, [0, 1], np.array([[0.0, np.nan], [0.1, 0.0]]))
    with pytest.raises(InputError, match="margin matrix must be"):
        igam_batch(clf, X, [0, 1], np.zeros((2, 3)))


_NON_FINITE_BATCHES = {
    "nan-feature": ([[np.nan, 1, 0, 0], [1, 0, 0, 0]], None, "non-finite feature values"),
    "inf-feature": ([[np.inf, 1, 0, 0], [1, 0, 0, 0]], None, "non-finite feature values"),
    "inf-weight": ([[1, 1, 0, 0], [1, 0, 0, 0]], (0, 0, np.inf), "non-finite weight values"),
    "nan-weight": ([[1, 1, 0, 0], [1, 0, 0, 0]], (2, 3, np.nan), "non-finite weight values"),
}


@pytest.mark.parametrize("loss", ["ce", "normface", "igam"])
@pytest.mark.parametrize("case", sorted(_NON_FINITE_BATCHES))
def test_non_finite_batch_rejected_by_every_loss(loss, case):
    # Plain cross-entropy used to return a nan or inf loss here; all three
    # losses now share the same check and message.
    X, weight_entry, message = _NON_FINITE_BATCHES[case]
    W = np.eye(3, 4)
    if weight_entry is not None:
        W[weight_entry[:2]] = weight_entry[2]
    clf = CosineClassifier(W)
    call = {"ce": ce_batch, "normface": normface_batch,
            "igam": lambda c, x, y: igam_batch(c, x, y, MarginMatrix.zeros(3))}[loss]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=message):
            call(clf, X, [0, 1])
    with pytest.raises(InputError, match=message):
        clf.cosines(X)


def test_losses_are_positive_and_finite():
    rng = np.random.default_rng(55)
    for _ in range(10):
        C = int(rng.integers(2, 9))
        p = int(rng.integers(2, 12))
        n = int(rng.integers(1, 20))
        clf = make_clf(rng.normal(size=(C, p)), s=float(rng.uniform(0.5, 60.0)))
        X = rng.normal(size=(n, p))
        y = rng.integers(0, C, size=n)
        M = rng.uniform(0.0, 0.2, size=(C, C))
        np.fill_diagonal(M, 0.0)
        for batch in (igam_batch(clf, X, y, M), normface_batch(clf, X, y), ce_batch(clf, X, y)):
            assert np.all(np.isfinite(batch.losses))
            assert np.all(batch.losses >= 0.0)
            assert batch.logits.shape == (n, C)


# ------------------------------------------------------- overflowing norms


def test_feature_norm_overflow_raises_numerical_error():
    # Each coordinate is finite but the squared norm overflows; scoring
    # the row as cosine 0 would give ln C and a zero gradient.
    clf = make_clf(_W34[:, :4])
    X = np.array([[0.3, -1.2, 0.7, 2.0], [1e200, 1e200, 0.0, 0.0]])
    with pytest.raises(NumericalError, match="feature vector at index 1"):
        igam_batch(clf, X, [0, 1], _M3)
    with pytest.raises(NumericalError, match="feature vector at index 1"):
        clf.predict(X)


def test_weight_norm_overflow_raises_numerical_error():
    W = _W34.copy()
    W[2] = [1e200, -1e200, 0.0, 0.0]
    clf = make_clf(W)
    with pytest.raises(NumericalError, match="weight vector at index 2"):
        normface_batch(clf, _X4, [0])
    with pytest.raises(NumericalError, match="weight vector at index 2"):
        clf.predict(_X4)


def test_tiny_norm_row_scores_like_its_direction():
    # Every square of 1e-200 underflows to 0, so without the rescale the
    # first row reads as zero-norm; the second row's squares are subnormal.
    clf = make_clf(_W34)
    tiny = np.array([[1e-200, 1e-200, 0.0, 0.0], [1e-160, 2e-160, 0.0, 0.0]])
    plain = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 2.0, 0.0, 0.0]])
    for evaluate in (lambda X: igam_batch(clf, X, [0, 0], _M3),
                     lambda X: normface_batch(clf, X, [0, 0])):
        got, want = evaluate(tiny), evaluate(plain)
        assert np.array_equal(got.logits[0], want.logits[0])
        np.testing.assert_allclose(got.logits[1], want.logits[1], rtol=1e-15, atol=1e-14)
        np.testing.assert_allclose(got.grad_weights, want.grad_weights,
                                   rtol=1e-14, atol=1e-15)
    assert np.array_equal(clf.predict(tiny), clf.predict(plain))


def test_tiny_weight_row_is_rescaled():
    W = _W34.copy()
    W[1] = [0.0, 3e-170, -4e-170, 0.0]
    plain = _W34.copy()
    plain[1] = [0.0, 3.0, -4.0, 0.0]
    got = normface_batch(make_clf(W), _X4, [1])
    want = normface_batch(make_clf(plain), _X4, [1])
    np.testing.assert_allclose(got.logits, want.logits, rtol=1e-15, atol=1e-14)


def test_all_zero_row_still_raises_with_its_index():
    clf = make_clf(_W34)
    X = np.array([[1e-200, 0.0, 0.0, 0.0], [0.3, 0.1, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    with pytest.raises(InputError, match="zero-norm feature vector at index 2"):
        igam_batch(clf, X, [0, 1, 2], _M3)
    W = _W34.copy()
    W[1] = 0.0
    with pytest.raises(InputError, match="zero-norm weight vector at index 1"):
        normface_batch(make_clf(W), _X4, [0])


# ------------------------------------------------- bit-identity reference


def _igam_reference(clf, X, labels, M):
    """The masked evaluation the dense kernel replaced, kept to pin its bits."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    M = np.asarray(M, dtype=np.float64)
    s = clf.scale
    n = X.shape[0]
    rows = np.arange(n)
    xnorms = np.linalg.norm(X, axis=1)
    U = X / xnorms[:, None]
    wnorms = np.linalg.norm(clf.weights, axis=1)
    Wn = clf.weights / wnorms[:, None]
    cos = np.clip(U @ Wn.T, -1.0, 1.0)

    m = M[labels]
    m[rows, labels] = 0.0
    active = m != 0.0

    z = s * cos
    dzdc = np.full_like(cos, s)
    saturated = 0
    if active.any():
        c_a = cos[active]
        m_a = m[active]
        theta = np.arccos(c_a)
        clamp = theta + m_a > np.pi
        sin_t = np.sqrt(np.maximum(1.0 - c_a * c_a, 0.0))
        cos_m = np.cos(m_a)
        sin_m = np.sin(m_a)
        phi = c_a * cos_m - sin_t * sin_m
        sat = (~clamp) & (np.abs(c_a) > 1.0 - 1e-9)
        saturated = int(sat.sum())
        safe_sin = np.where(sin_t > 0.0, sin_t, 1.0)
        d_a = s * (cos_m + c_a * sin_m / safe_sin)
        d_a[clamp | sat] = 0.0
        z[active] = s * np.where(clamp, -1.0, phi)
        dzdc[active] = d_a

    diffs = z - z[rows, labels][:, None]
    ed = np.exp(diffs)
    ed[rows, labels] = 0.0
    losses = np.log1p(ed.sum(axis=1))
    shifted = z - z.max(axis=1, keepdims=True)
    ez = np.exp(shifted)
    gz = ez / ez.sum(axis=1, keepdims=True)
    gz[rows, labels] -= 1.0
    gz = gz / n

    gc = gz * dzdc
    gc_cos = gc * cos
    row_mix = gc_cos.sum(axis=1, keepdims=True)
    grad_X = (gc @ Wn - row_mix * U) / xnorms[:, None]
    col_mix = gc_cos.sum(axis=0)[:, None]
    grad_W = (gc.T @ U - col_mix * Wn) / wnorms[:, None]
    return {
        "losses": losses, "logits": z, "grad_weights": grad_W,
        "grad_inputs": grad_X, "grad_cos": gc, "saturated": saturated,
    }


def _random_problem(seed, C=9, p=12, n=40, s=30.0):
    rng = np.random.default_rng(seed)
    clf = make_clf(rng.normal(size=(C, p)), s=s)
    X = rng.normal(size=(n, p))
    y = rng.integers(0, C, size=n)
    norm = normalize_info(rng.uniform(0.0, 50.0, size=C), ibar="mean")
    return clf, X, y, norm


def _margin_cases(norm, C):
    rival = build_margins(norm, variant="clamped", direction="rival")
    signed = build_margins(norm, variant="signed", direction="target")
    dirty = rival.m.copy()
    np.fill_diagonal(dirty, 0.7)
    return {
        "clamped-rival": rival,
        "signed-target": signed,
        "zero": MarginMatrix.zeros(C),
        "x60": MarginMatrix(60.0 * rival.m),
        "signed-x60": MarginMatrix(60.0 * signed.m),
        "raw-diagonal": dirty,
    }


def _assert_matches_reference(clf, X, y, margins):
    out = igam_batch(clf, X, y, margins)
    ref = _igam_reference(clf, X, y, getattr(margins, "m", margins))
    for name in ("losses", "logits", "grad_weights", "grad_inputs", "grad_cos"):
        assert np.array_equal(getattr(out, name), ref[name]), name
    assert out.saturated == ref["saturated"]
    return out


def _outside_in_clamped(out, y, M, s):
    # Margin-active entries whose logit sits at exactly -s.
    active = np.asarray(getattr(M, "m", M))[y] != 0.0
    active[np.arange(y.shape[0]), y] = False
    return int(np.count_nonzero(active & (out.logits == -s)))


@pytest.mark.parametrize("seed", [61, 62, 63])
@pytest.mark.parametrize(
    "case", ["clamped-rival", "signed-target", "zero", "x60", "signed-x60", "raw-diagonal"]
)
def test_igam_is_bit_identical_to_masked_reference(seed, case):
    clf, X, y, norm = _random_problem(seed)
    margins = _margin_cases(norm, clf.n_classes)[case]
    out = _assert_matches_reference(clf, X, y, margins)
    assert out.clamped == _outside_in_clamped(out, y, margins, clf.scale)
    if case.endswith("x60"):
        assert out.clamped > 0
    if case == "zero":
        assert out.clamped == out.saturated == 0


@pytest.mark.parametrize("seed", [64, 65])
def test_bit_identity_with_saturated_entries(seed):
    clf, X, y, norm = _random_problem(seed)
    margins = build_margins(norm, variant="clamped", direction="rival")
    # Point features along rival weights whose margin against the label is
    # active, so their cosine is 1 to within rounding.
    M = margins.m
    for k in range(X.shape[0]):
        rivals = np.flatnonzero(M[y[k]])
        if rivals.size:
            X[k] = 3.0 * clf.weights[rivals[k % rivals.size]]
    out = _assert_matches_reference(clf, X, y, margins)
    assert out.saturated > 0


@pytest.mark.parametrize("case", ["clamped-rival", "x60", "raw-diagonal"])
def test_bit_identity_one_row_batch(case):
    clf, X, y, norm = _random_problem(66)
    margins = _margin_cases(norm, clf.n_classes)[case]
    for k in range(5):
        _assert_matches_reference(clf, X[k:k + 1], y[k:k + 1], margins)


# ------------------------------------------------ laziness and read-only


@pytest.mark.parametrize("loss", ["igam", "ce"])
def test_grad_inputs_unchanged_by_in_place_weight_step(loss):
    clf, X, y, norm = _random_problem(67)
    margins = build_margins(norm, variant="clamped", direction="rival")

    def evaluate():
        if loss == "ce":
            return ce_batch(clf, X, y)
        return igam_batch(clf, X, y, margins)

    want = evaluate().grad_inputs
    out = evaluate()
    velocity = out.grad_weights.copy()
    W = clf.weights
    W -= 0.5 * velocity  # the trainer's in-place step
    assert np.array_equal(out.grad_inputs, want)
    assert out.grad_inputs is out.grad_inputs


def test_grad_cos_and_cached_trig_are_read_only():
    clf, X, y, norm = _random_problem(68)
    margins = build_margins(norm, variant="clamped", direction="rival")
    for out in (igam_batch(clf, X, y, margins), ce_batch(clf, X, y)):
        with pytest.raises(ValueError):
            out.grad_cos[0, 0] = 1.0
    cos_m, sin_m = margins._trig
    with pytest.raises(ValueError):
        cos_m[0, 1] = 0.0
    with pytest.raises(ValueError):
        sin_m[0, 1] = 0.0
    assert margins._trig is margins._trig


def test_margin_trig_skipped_for_zero_margins_and_exact_where_inactive():
    clf, X, y, norm = _random_problem(69)
    zero = MarginMatrix.zeros(clf.n_classes)
    igam_batch(clf, X, y, zero)
    assert "_trig" not in vars(zero)
    raw = np.array([[0.5, 0.2, -0.0], [0.0, 0.0, -0.3], [1.0, 0.0, 0.0]])
    cos_m, sin_m = MarginMatrix(raw)._trig
    inactive = (raw == 0.0) | np.eye(3, dtype=bool)
    assert np.all(cos_m[inactive] == 1.0)
    assert np.all(np.signbit(sin_m[inactive]) == 0) and np.all(sin_m[inactive] == 0.0)
    assert np.array_equal(cos_m[~inactive], np.cos(raw[~inactive]))
    assert np.array_equal(sin_m[~inactive], np.sin(raw[~inactive]))
