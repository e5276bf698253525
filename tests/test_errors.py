"""The shared input checks of `infomargin.errors`: one rule for every
(features, ids) entry point, and one reader of JSON number lists."""

import re

import numpy as np
import pytest

from infomargin.errors import InputError, as_batch, as_id, as_number_array
from infomargin.fileio import write_embeddings_binary
from infomargin.loss import CosineClassifier, MarginMatrix, ce_batch, igam_batch
from infomargin.stats import EpochAccumulator, local_stats_from_arrays
from infomargin.trainer import SyntheticSpec, TrainConfig, generate_dataset, train

C, P = 2, 3


def _nan_row():
    X = np.ones((2, P))
    X[1, 2] = np.nan
    return X


# name: (features, ids, the message every entry point gives after its prefix)
_BAD_BATCHES = {
    "float-ids": (np.ones((2, P)), [0.5, 1.7], "ids must be integers, got dtype float64"),
    "bool-ids": (np.ones((2, P)), np.array([True, False]), "ids must be integers, got dtype bool"),
    "uint64-2**63": (np.ones((2, P)), np.array([2**63, 1], dtype=np.uint64),
                     f"id {2**63} in row 0 is outside [0, "),
    "negative-id": (np.ones((2, P)), [0, -1], "id -1 in row 1 is outside [0, "),
    "nan-row": (_nan_row(), [0, 1], "non-finite value in row 1"),
    "length-mismatch": (np.ones((2, P)), [0, 1, 1], "ids of shape (3,) for 2 rows"),
}


def _train(X, ids):
    spec = SyntheticSpec(C=C, p=P, n_train=4, n_test=4, spreads=(1.0, 1.0),
                         mean_separation=3.0)
    ds = generate_dataset(spec)
    ds.train_X, ds.train_y = X, np.asarray(ids)
    train(ds, TrainConfig(epochs=1, batch_size=2, queue_len=4))


def _entry_points(tmp_path):
    clf = CosineClassifier(np.eye(C, P))
    return {
        "write_embeddings_binary": lambda X, y: write_embeddings_binary(tmp_path / "e.bin", X, y),
        "EpochAccumulator.add": lambda X, y: EpochAccumulator(capacity=1, p=P).add(X, y),
        "local_stats_from_arrays": local_stats_from_arrays,
        "igam_batch": lambda X, y: igam_batch(clf, X, y, MarginMatrix(np.zeros((C, C)))),
        "normface_batch": lambda X, y: igam_batch(clf, X, y, None),
        "ce_batch": lambda X, y: ce_batch(clf, X, y),
        "train": _train,
    }


_ENTRY_POINTS = sorted(_entry_points(None))


@pytest.mark.parametrize("entry", _ENTRY_POINTS)
@pytest.mark.parametrize("case", sorted(_BAD_BATCHES))
def test_every_entry_point_rejects_the_same_bad_batches(tmp_path, entry, case):
    X, ids, message = _BAD_BATCHES[case]
    with pytest.raises(InputError, match=re.escape(message)):
        _entry_points(tmp_path)[entry](X, ids)
    assert not any(tmp_path.iterdir())


def test_as_batch_copies_nothing_it_need_not():
    X = np.ones((3, 2))
    ids = np.array([0, 2, 1])
    out_X, out_ids = as_batch(X, ids, "batch", p=2, C=3)
    assert out_X is X and out_ids is ids
    out_X, out_ids = as_batch([[1, 2]], np.array([7], dtype=np.uint8), "batch")
    assert out_X.dtype == np.float64 and out_ids.dtype == np.int64 and out_ids[0] == 7


def test_as_batch_bounds():
    X = np.ones((2, 1))
    assert as_batch(X, np.array([0, 2**63 - 1]), "b")[1][1] == 2**63 - 1
    # An empty batch may come with an empty list, which numpy reads as float64.
    empty_X, empty_ids = as_batch(np.zeros((0, 1)), [], "b", p=1)
    assert empty_X.shape == (0, 1) and empty_ids.dtype == np.int64


def test_as_number_array_finds_booleans_below_the_top_level():
    # Every number list is flat: a nested list is refused, booleans or not,
    # and so is a boolean among numbers.
    for value in ([[[0.0], [1.0]], [[True], [2.0]]], [[0.0, 0.1], [0.2, 0.0]], [0.0, True], 1.0):
        with pytest.raises(InputError, match="^v: expected a list of numbers$"):
            as_number_array(value, "v")


def test_as_number_array_gives_float64():
    out = as_number_array([1, 2, 3], "v")
    assert out.dtype == np.float64 and out.shape == (3,)
    with pytest.raises(InputError, match="^v: expected a list of numbers$"):
        as_number_array([[1, 2], [3, 4]], "v")
    a = np.arange(3.0)
    assert as_number_array(a, "v") is a
    with pytest.raises(InputError, match="^v: int too large to convert to float$"):
        as_number_array([0.5, 10**400], "v")


def test_as_number_array_rejects_non_finite_values():
    # `json.loads` reads a literal beyond float64, such as 1e400, as inf.
    for value, bad in (([0.5, float("inf")], "inf at index 1"),
                       (np.array([-np.inf, 0.0]), "-inf at index 0"),
                       (np.array([1.0, 2.0, np.nan]), "nan at index 2")):
        with pytest.raises(InputError, match=f"^v: expected finite numbers, got {bad}$"):
            as_number_array(value, "v")


@pytest.mark.parametrize("value, message", [
    (2**63, f"x: category id {2**63} exceeds {2**63 - 1}"),
    (-1, "x must be >= 0, got -1"),
    (1.0, "x: expected an integer, got 1.0"),
    (True, "x: expected an integer, got True"),
])
def test_as_id_takes_the_ids_an_int64_holds(value, message):
    assert as_id(2**63 - 1, "x") == 2**63 - 1 and as_id(np.int64(0), "x") == 0
    with pytest.raises(InputError, match=re.escape(message)):
        as_id(value, "x")
