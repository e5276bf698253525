"""Queue-length planning and the storage-ratio model."""

import re

import numpy as np
import pytest

from infomargin.errors import InputError
from infomargin.planner import MODES, PlanInput, memory_report, optimal_queue_length, storage_ratio

EX1 = PlanInput(N=55800, p=128, C=20)
EX2 = PlanInput(N=605638, p=128, C=80)


def brute_force_ratio(inp, d):
    """Independent R(d): stored reals (queue + C*K covariances of p^2
    entries) over the N*p reals of the keep-everything baseline."""
    K = inp.N // d + 1
    stored = d * inp.p + inp.C * K * inp.p * inp.p
    return stored / (inp.N * inp.p)


# ------------------------------------------------------------ storage ratio


def test_ratio_worked_example_one():
    # d = 11517 keeps K = 5 windows: (11517 + 20*5*128) / 55800 = 24317/55800.
    assert storage_ratio(EX1, 11517) == pytest.approx(24317 / 55800, rel=1e-15)
    assert storage_ratio(EX1, 11517) == pytest.approx(0.4358, abs=5e-5)


def test_ratio_worked_example_two():
    # d = 68182 keeps K = 9 windows: (68182 + 80*9*128) / 605638 = 160342/605638.
    assert storage_ratio(EX2, 68182) == pytest.approx(160342 / 605638, rel=1e-15)
    assert storage_ratio(EX2, 68182) == pytest.approx(0.2648, abs=1e-4)


def test_ratio_at_full_queue_exceeds_one():
    # At d = N the floor term still contributes K = 2 snapshot windows, so
    # the"compressed" layout stores strictly more than the original.
    for inp in (EX1, EX2, PlanInput(N=1000, p=4, C=3)):
        expected = 1.0 + 2.0 * inp.C * inp.p / inp.N
        assert storage_ratio(inp, inp.N) == pytest.approx(expected, rel=1e-15)
        assert storage_ratio(inp, inp.N) > 1.0


def test_ratio_matches_brute_force_counting():
    rng = np.random.default_rng(61)
    for _ in range(50):
        inp = PlanInput(
            N=int(rng.integers(10, 100000)),
            p=int(rng.integers(1, 300)),
            C=int(rng.integers(1, 500)),
        )
        d = int(rng.integers(1, inp.N + 1))
        assert storage_ratio(inp, d) == pytest.approx(brute_force_ratio(inp, d), rel=1e-12)


def test_ratio_is_one_formula_for_scalar_and_array_d():
    # The float formula equals the exact ratio, rounded once, whether d comes
    # one at a time or as an array: every legal d at small N, sampled d up to
    # N = 10^9.
    rng = np.random.default_rng(67)
    for _ in range(30):
        N = int(rng.integers(1, 5000))
        inp = PlanInput(N=N, p=int(rng.integers(1, 1025)), C=int(rng.integers(1, 2001)))
        d = np.arange(1, N + 1)
        expected = (d + inp.C * (N // d + 1) * inp.p) / N
        assert np.array_equal(storage_ratio(inp, d), expected)
    for _ in range(30):
        N = int(rng.integers(1, 10**9 + 1))
        inp = PlanInput(N=N, p=int(rng.integers(1, 1025)), C=int(rng.integers(1, 2001)))
        d = np.unique(np.concatenate([rng.integers(1, N + 1, size=500), [1, N]]))
        R = storage_ratio(inp, d)
        for k, dk in enumerate(d.tolist()):
            assert R[k] == (dk + inp.C * (N // dk + 1) * inp.p) / N == storage_ratio(inp, dk)


def test_ratio_rejects_out_of_range_d():
    for d in (0, EX1.N + 1, np.array([1, 0]), np.array([EX1.N, EX1.N + 1])):
        with pytest.raises(InputError, match=r"must lie in \[1, 55800\]"):
            storage_ratio(EX1, d)


def test_plan_input_validation():
    with pytest.raises(InputError):
        PlanInput(N=0, p=1, C=1)
    with pytest.raises(InputError):
        PlanInput(N=10, p=0, C=1)
    with pytest.raises(InputError):
        PlanInput(N=10, p=1, C=0)
    with pytest.raises(InputError):
        PlanInput(N=10, p=1, C=1, mode="hill-climb")
    assert MODES == ("grid", "exact")


@pytest.mark.parametrize("kwargs, message", [
    (dict(N=55800.0), "N: expected an integer, got 55800.0"),
    (dict(p=True), "p: expected an integer, got True"),
    (dict(C="20"), "C: expected an integer, got '20'"),
    (dict(mode=None), "mode must be one of"),
])
def test_plan_input_checks_types(kwargs, message):
    with pytest.raises(InputError, match="^" + re.escape(message)):
        PlanInput(**{**dict(N=55800, p=128, C=20), **kwargs})


def test_plan_input_stores_python_ints():
    inp = PlanInput(N=np.int64(55800), p=np.int32(128), C=np.uint8(20))
    assert inp == EX1 and all(type(v) is int for v in (inp.N, inp.p, inp.C))


# ------------------------------------------------------------ memory report


def test_memory_report_worked_example_one():
    rep = memory_report(EX1, 11517)
    assert rep["bytes_original"] == 55800 * 128 * 4 == 28569600
    assert rep["bytes_new"] == (11517 * 128 + 20 * 5 * 128 * 128) * 4 == 12450304
    assert rep["bytes_new_with_means"] == 12450304 + 20 * 5 * 128 * 4 == 12501504
    assert rep["bytes_original"] / 2**20 == pytest.approx(27.24609375, abs=1e-12)
    assert rep["bytes_new"] / 2**20 == pytest.approx(11.87353515625, abs=1e-12)


def test_memory_report_worked_example_two():
    rep = memory_report(EX2, 68182)
    assert rep["bytes_original"] == 310086656
    assert rep["bytes_new"] == 82095104
    assert rep["bytes_original"] / 2**20 == pytest.approx(295.7216796875, abs=1e-12)
    assert rep["bytes_new"] / 2**20 == pytest.approx(78.2919921875, abs=1e-12)


def test_savings_is_exactly_complement_of_ratio():
    rng = np.random.default_rng(62)
    for _ in range(20):
        inp = PlanInput(N=int(rng.integers(10, 10000)), p=int(rng.integers(1, 64)), C=int(rng.integers(1, 50)))
        d = int(rng.integers(1, inp.N + 1))
        rep = memory_report(inp, d)
        assert rep["savings_percent"] == 100.0 * (1.0 - rep["R"])
        assert rep["savings_percent"] < 100.0


def test_ratio_counts_stored_reals():
    # R(d) * N * p recovers the stored real count d*p + C*K*p^2, i.e.
    # exactly bytes_new / 4, tying the dimensionless ratio to the byte
    # accounting.
    rng = np.random.default_rng(63)
    for _ in range(20):
        inp = PlanInput(N=int(rng.integers(100, 50000)), p=int(rng.integers(1, 100)), C=int(rng.integers(1, 40)))
        d = int(rng.integers(1, inp.N + 1))
        stored = storage_ratio(inp, d) * inp.N * inp.p
        assert stored == pytest.approx(memory_report(inp, d)["bytes_new"] / 4, rel=1e-12)


# --------------------------------------------------------------- grid search


def test_grid_search_worked_example_one():
    rep = optimal_queue_length(EX1)
    assert rep["d_star"] == 11517
    assert rep["R"] == pytest.approx(0.43578853046594984, rel=1e-14)
    assert rep["savings_percent"] == pytest.approx(56.421146953405014, rel=1e-14)


def test_grid_search_worked_example_two():
    rep = optimal_queue_length(EX2)
    assert rep["d_star"] == 68182
    assert rep["savings_percent"] == pytest.approx(73.52510905854652, rel=1e-14)


def test_grid_search_rejects_small_N():
    with pytest.raises(InputError):
        optimal_queue_length(PlanInput(N=999, p=8, C=4))
    # exact mode has no lower bound on N
    rep = optimal_queue_length(PlanInput(N=999, p=8, C=4, mode="exact"))
    assert 1 <= rep["d_star"] <= 999


# -------------------------------------------------------------- exact search


def test_exact_search_worked_example_one():
    rep = optimal_queue_length(PlanInput(N=55800, p=128, C=20, mode="exact"))
    assert rep["d_star"] == 11161
    assert rep["R"] == pytest.approx(23961 / 55800, rel=1e-15)
    assert rep["R"] == pytest.approx(0.4294086021505376, rel=1e-14)


def test_exact_search_worked_example_two():
    rep = optimal_queue_length(PlanInput(N=605638, p=128, C=80, mode="exact"))
    assert rep["d_star"] == 75705
    assert rep["R"] == pytest.approx(157625 / 605638, rel=1e-15)


def test_exact_never_worse_than_grid():
    rng = np.random.default_rng(64)
    for _ in range(25):
        N = int(rng.integers(1000, 300000))
        p = int(rng.integers(1, 256))
        C = int(rng.integers(1, 200))
        grid = optimal_queue_length(PlanInput(N=N, p=p, C=C))
        exact = optimal_queue_length(PlanInput(N=N, p=p, C=C, mode="exact"))
        assert exact["R"] <= grid["R"] + 1e-15, (N, p, C)


def test_exact_matches_exhaustive_minimum_small_N():
    # For small N scan every legal d directly; argmin returns the first
    # (smallest) minimizer, matching the documented tie-break.
    rng = np.random.default_rng(65)
    for _ in range(15):
        N = int(rng.integers(2, 3000))
        p = int(rng.integers(1, 40))
        C = int(rng.integers(1, 12))
        inp = PlanInput(N=N, p=p, C=C, mode="exact")
        all_R = storage_ratio(inp, np.arange(1, N + 1))
        expected_d = int(np.argmin(all_R)) + 1
        rep = optimal_queue_length(inp)
        assert rep["d_star"] == expected_d, (N, p, C)
        assert rep["R"] == all_R[expected_d - 1]


def test_exact_optimum_beats_random_probes():
    rng = np.random.default_rng(66)
    rep = optimal_queue_length(PlanInput(N=55800, p=128, C=20, mode="exact"))
    inp = PlanInput(N=55800, p=128, C=20)
    probes = rng.integers(1, 55801, size=1000)
    for d in probes:
        assert rep["R"] <= storage_ratio(inp, int(d)) + 1e-15


# -------------------------------------------------------------------- json


def test_plan_result_json_fields():
    doc = optimal_queue_length(EX1)
    assert doc["d_star"] == 11517
    assert doc["bytes_original"] == 28569600
    assert doc["mb_original"] == pytest.approx(27.24609375)
    assert doc["mb_new"] == pytest.approx(11.87353515625)
    assert set(doc) == {
        "d_star",
        "R",
        "savings_percent",
        "bytes_original",
        "bytes_new",
        "bytes_new_with_means",
        "mb_original",
        "mb_new",
    }
