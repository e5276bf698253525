"""The embedding file format and canonical JSON emission."""

import json
import os
import re
import stat
import struct
import threading
import warnings

import numpy as np
import pytest

from infomargin.errors import InputError
from infomargin.fileio import (
    MAGIC,
    canonical_dumps,
    iter_embeddings,
    read_embeddings,
    read_json,
    write_embeddings_binary,
    write_json,
)
from infomargin.planner import PlanInput, optimal_queue_length
from infomargin.stats import EpochAccumulator, global_stats_to_json
from infomargin.trainer import SyntheticSpec, TrainConfig, generate_dataset, run_report_to_json, train


@pytest.fixture
def sample():
    rng = np.random.default_rng(81)
    X = rng.normal(size=(13, 5)) * 10.0
    cats = rng.integers(0, 4, size=13)
    return X, cats


# ------------------------------------------------------------- round trips


def test_round_trip_preserves_f32_payload(tmp_path, sample):
    X, cats = sample
    path = tmp_path / "emb.bin"
    write_embeddings_binary(path, X, cats)
    X2, cats2 = read_embeddings(path)
    # Storage is 32-bit; the round trip reproduces the f32 rounding exactly.
    assert np.array_equal(X2, X.astype(np.float32).astype(np.float64))
    assert np.array_equal(cats2, cats)


def test_binary_layout_is_little_endian_fixed(tmp_path):
    path = tmp_path / "one.bin"
    write_embeddings_binary(path, np.array([[1.0, -2.5]]), np.array([7]))
    raw = path.read_bytes()
    assert raw[:8] == MAGIC
    p, count = struct.unpack_from("<IQ", raw, 8)
    assert (p, count) == (2, 1)
    cat, v0, v1 = struct.unpack_from("<Iff", raw, 20)
    assert cat == 7 and v0 == 1.0 and v1 == -2.5
    assert len(raw) == 20 + 4 + 8


# ----------------------------------------------------------- format detect


def test_format_is_read_from_content(tmp_path, sample):
    # The file name plays no part: a binary file named .csv reads, and a
    # text file headered `category,e0` fails the magic, whatever its name.
    X, cats = sample
    write_embeddings_binary(tmp_path / "x.csv", X, cats)
    X_bin, cats_bin = read_embeddings(tmp_path / "x.csv")
    assert np.array_equal(X_bin, X.astype(np.float32).astype(np.float64))
    assert np.array_equal(cats_bin, cats)
    path = tmp_path / "x.bin"
    path.write_text("category,e0\n0,1.0\n")
    with pytest.raises(InputError, match=re.escape(
            "bad magic b'category' at byte offset 0 (expected b'IGAMEMB1')")):
        read_embeddings(path)


# ----------------------------------------------------------- chunked reads


def test_binary_chunks_tile_the_file(tmp_path, sample):
    # 13 records in chunks of 4: 4 + 4 + 4 + 1, concatenating to the whole file.
    path = tmp_path / "emb.bin"
    write_embeddings_binary(path, *sample)
    p, chunks = iter_embeddings(path, chunk=4)
    chunks = list(chunks)
    assert p == 5
    assert [X.shape[0] for X, _ in chunks] == [4, 4, 4, 1]
    X, cats = read_embeddings(path)
    assert np.array_equal(np.concatenate([c[0] for c in chunks]), X)
    assert np.array_equal(np.concatenate([c[1] for c in chunks]), cats)


def test_binary_header_checked_before_any_record(tmp_path):
    # The size check and the chunk size check run when the iterator is made.
    path = tmp_path / "sz.bin"
    path.write_bytes(struct.pack("<8sIQ", MAGIC, 2, 3) + struct.pack("<Iff", 0, 1.0, 2.0))
    with pytest.raises(InputError, match="expected file size"):
        iter_embeddings(path, chunk=2)
    write_embeddings_binary(path, np.ones((2, 2)), np.array([0, 1]))
    with pytest.raises(InputError, match="chunk size must be >= 1, got 0"):
        iter_embeddings(path, chunk=0)


@pytest.mark.parametrize("chunk, message", [
    (0, "chunk size must be >= 1, got 0"),
    (2.5, "chunk size: expected an integer, got 2.5"),
    (True, "chunk size: expected an integer, got True"),
])
def test_chunk_size_checked_when_called(tmp_path, sample, chunk, message):
    path = tmp_path / "emb.bin"
    write_embeddings_binary(path, *sample)
    with pytest.raises(InputError, match=re.escape(message)):
        iter_embeddings(path, chunk=chunk)
    p, chunks = iter_embeddings(path, chunk=np.int64(13))
    assert p == 5 and len(list(chunks)) == 1


def test_binary_file_cut_after_the_check_is_reported(tmp_path, sample):
    # The size is checked before reading; a file cut short afterwards is
    # reported where its records stop, not passed on as fewer records.
    path = tmp_path / "emb.bin"
    write_embeddings_binary(path, *sample)
    _, chunks = iter_embeddings(path, chunk=4)
    path.write_bytes(path.read_bytes()[:20 + 6 * 24])
    with pytest.raises(InputError, match="record 6 missing at byte offset 164"):
        list(chunks)


# ----------------------------------------------------------- binary errors


def test_binary_truncated_header(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"IGAM")
    with pytest.raises(InputError, match="truncated header.*byte offset 0"):
        read_embeddings(path)


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(struct.pack("<8sIQ", b"NOTMAGIC", 2, 0))
    with pytest.raises(InputError, match=re.escape(
            "bad magic b'NOTMAGIC' at byte offset 0 (expected b'IGAMEMB1')")):
        read_embeddings(path)


def test_binary_zero_dimension_rejected(tmp_path):
    path = tmp_path / "p0.bin"
    path.write_bytes(struct.pack("<8sIQ", MAGIC, 0, 1))
    with pytest.raises(InputError, match="byte offset 8"):
        read_embeddings(path)


def test_binary_size_mismatch_names_offset(tmp_path):
    path = tmp_path / "sz.bin"
    record = struct.pack("<Iff", 0, 1.0, 2.0)
    path.write_bytes(struct.pack("<8sIQ", MAGIC, 2, 3) + record * 2)
    with pytest.raises(InputError, match="expected file size.*mismatch at byte offset"):
        read_embeddings(path)


def test_binary_non_finite_names_record_and_offset(tmp_path):
    path = tmp_path / "inf.bin"
    good = struct.pack("<Iff", 0, 1.0, 2.0)
    bad = struct.pack("<Iff", 1, np.inf, 0.0)
    path.write_bytes(struct.pack("<8sIQ", MAGIC, 2, 2) + good + bad)
    # Record 1 starts at 20 + 12; its vector starts 4 bytes later.
    with pytest.raises(InputError, match="record 1 at byte offset 36"):
        read_embeddings(path)


def test_binary_zero_records_rejected(tmp_path):
    path = tmp_path / "none.bin"
    path.write_bytes(struct.pack("<8sIQ", MAGIC, 3, 0))
    with pytest.raises(InputError, match="no records"):
        read_embeddings(path)


# ------------------------------------------------------------- json errors


def test_read_json_reports_line_and_column(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "a": 1,\n  "b": }\n')
    with pytest.raises(InputError, match="invalid JSON at line 3, column 8"):
        read_json(path)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_read_json_rejects_non_standard_constants(tmp_path, constant):
    # `json.loads` takes these by default; no writer here emits them.
    path = tmp_path / "c.json"
    path.write_text('{"a": [1.0, %s]}' % constant)
    with pytest.raises(InputError, match=re.escape(
            f"{path}: invalid JSON: {constant} is not a JSON number")):
        read_json(path)


def test_read_json_missing_file(tmp_path):
    with pytest.raises(InputError):
        read_json(tmp_path / "absent.json")


# --------------------------------------------------------- writer validation


def test_writers_reject_bad_arrays(tmp_path, sample):
    X, cats = sample
    with pytest.raises(InputError, match=re.escape(
            f"a.bin: id {cats[0] - 10} in row 0 is outside [0, {2**63})")):
        write_embeddings_binary(tmp_path / "a.bin", X, cats - 10)
    with pytest.raises(InputError, match="b.bin: non-finite value in row 2"):
        bad = X.copy()
        bad[2, 1] = np.nan
        write_embeddings_binary(tmp_path / "b.bin", bad, cats)
    with pytest.raises(InputError, match=re.escape(f"ids of shape ({len(cats) - 1},) for {len(cats)} rows")):
        write_embeddings_binary(tmp_path / "c.bin", X, cats[:-1])
    with pytest.raises(InputError, match="u32 range"):
        write_embeddings_binary(tmp_path / "d.bin", X[:1], np.array([2**32]))


# Each of these arrays would make a file that `iter_embeddings` rejects, so the
# writer refuses it before it opens the file.


def test_writer_rejects_zero_rows(tmp_path):
    path = tmp_path / "empty.bin"
    with pytest.raises(InputError, match=re.escape(f"{path}: no records to write")):
        write_embeddings_binary(path, np.empty((0, 3)), np.empty(0, dtype=np.int64))
    assert not path.exists()


def test_writer_rejects_zero_dimension(tmp_path):
    path = tmp_path / "p0.bin"
    with pytest.raises(InputError, match=re.escape(f"{path}: embedding dimension 0 must be >= 1")):
        write_embeddings_binary(path, np.empty((2, 0)), np.array([0, 1]))
    assert not path.exists()


def test_writer_rejects_values_beyond_float32(tmp_path):
    path = tmp_path / "big.bin"
    X = np.ones((3, 2))
    X[1, 0] = 1e39
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=re.escape(
                f"{path}: value in row 1 is beyond the float32 range")):
            write_embeddings_binary(path, X, np.array([0, 1, 2]))
    assert not path.exists()
    # The largest float32 itself is written and read back.
    X[1, 0] = -float(np.finfo(np.float32).max)
    write_embeddings_binary(path, X, np.array([0, 1, 2]))
    assert read_embeddings(path)[0][1, 0] == X[1, 0]


# ---------------------------------------------------------- canonical json


def _stdlib_canonical(obj) -> str:
    # The reference: canonical_dumps must give exactly these bytes. Arrays
    # (the statistics document holds them) are encoded as their float lists.
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False,
                      default=np.ndarray.tolist) + "\n"


def _stats_document(tmp_path):
    rng = np.random.default_rng(83)
    path = tmp_path / "small.bin"
    write_embeddings_binary(path, rng.normal(size=(40, 3)), rng.integers(0, 3, size=40))
    p, chunks = iter_embeddings(path, chunk=16)
    acc = EpochAccumulator(capacity=16, p=p)
    for X, categories in chunks:
        acc.add(X, categories)
    return global_stats_to_json(acc.finalize())


def _toy_report(tmp_path):
    spec = SyntheticSpec(C=3, p=4, n_train=40, n_test=20, spreads=(0.5, 1.0, 2.0),
                         mean_separation=3.0, seed=0)
    dataset = generate_dataset(spec)
    results = [train(dataset, TrainConfig(loss=loss, epochs=2, batch_size=16, queue_len=60))
               for loss in ("ce", "igam")]
    return run_report_to_json(spec, results)


_CANONICAL_CORPUS = {
    "mixed-list": lambda _: [1, 2.5, True, None, "s"],
    "tuples": lambda _: {"t": (1.0, 2.0), "u": (1, (2, "x")), "e": ()},
    "np-float64": lambda _: {"v": [np.float64(0.5), 1.5], "s": np.float64(-3.25)},
    "edge-floats": lambda _: [-0.0, 5e-324, 1e16, 1.7976931348623157e308, 0.1 + 0.2],
    "empty-containers": lambda _: [[], {}, [[]], [{}], {"a": [], "b": {}}],
    "list-of-containers": lambda _: [[1.0, 2.0], {"k": [3]}, 4.0, "x"],
    "strings": lambda _: {'q"uote': 'a "b" \\ c\nd\te', "é": "naïve ☃ \U0001f600"},
    "scalars": lambda _: 7,
    "bare-string": lambda _: "text",
    "null": lambda _: None,
    "stats-document": _stats_document,
    "toy-report": _toy_report,
    "plan-result": lambda _: optimal_queue_length(PlanInput(N=55_800, p=128, C=20)),
}


def test_canonical_dumps_is_stable_and_sorted():
    doc = {"b": 0.1, "a": [1, 2.5], "c": {"y": None, "x": "s"}}
    text = canonical_dumps(doc)
    assert text == _stdlib_canonical(doc)
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert '"b": 0.1' in text  # shortest round-trip float formatting
    # Re-emitting the parsed document reproduces the bytes exactly.
    assert canonical_dumps(json.loads(text)) == text


@pytest.mark.parametrize("name", sorted(_CANONICAL_CORPUS))
def test_canonical_dumps_matches_stdlib(tmp_path, name):
    doc = _CANONICAL_CORPUS[name](tmp_path)
    text = canonical_dumps(doc)
    assert text == _stdlib_canonical(doc)
    assert canonical_dumps(json.loads(text)) == text


def test_canonical_dumps_rejects_nan():
    # NaN and +-inf in a float list, in a mixed list and as a dict value.
    for bad in (float("nan"), float("inf"), float("-inf")):
        for doc in ({"x": [1.0, bad, 2.0]}, {"x": [1, "s", bad]}, {"x": bad}):
            with pytest.raises(ValueError):
                _stdlib_canonical(doc)
            with pytest.raises(ValueError, match="not JSON compliant"):
                canonical_dumps(doc)


@pytest.mark.parametrize("bad", [
    {"x": np.int64(3)},
    {"x": [1.0, np.int64(3)]},
    {"x": {1, 2}},
])
def test_canonical_dumps_rejects_unserializable(bad):
    with pytest.raises(TypeError):
        _stdlib_canonical(bad)
    with pytest.raises(TypeError, match="not JSON serializable"):
        canonical_dumps(bad)


def test_canonical_dumps_rejects_non_str_keys():
    # The stdlib would write {"1": ...}; no document of this package has
    # such keys, so they are refused.
    with pytest.raises(TypeError, match="keys must be str"):
        canonical_dumps({1: 0.5})


def _both_paths(values: np.ndarray):
    """canonical_dumps of `values` as an array and as a list of floats, in a
    dict, in a list next to other values, and bare."""
    return [(canonical_dumps(wrap(values)), canonical_dumps(wrap(values.tolist())))
            for wrap in (lambda v: {"v": v, "w": 1}, lambda v: [v, "s", v], lambda v: v)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_canonical_dumps_array_matches_list(seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=200) * 10.0 ** rng.integers(-30, 30, size=200)
    values[::7] = values[3]  # repeats: one spelling serves many entries
    sym = rng.normal(size=(9, 9))
    for a in (values, (sym + sym.T).reshape(-1), values[::3]):
        for array_text, list_text in _both_paths(a):
            assert array_text == list_text
            assert array_text == _stdlib_canonical(json.loads(list_text))


def test_canonical_dumps_array_edge_floats():
    edge = np.array([0.0, -0.0, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e-310, 1e16, 1e-5, 1e-4, 1.7976931348623157e308,
                     -1.7976931348623157e308, 0.1 + 0.2, 1.0, -1.0, 1.0])
    for array_text, list_text in _both_paths(edge):
        assert array_text == list_text
    text = canonical_dumps(edge)
    assert text.split(",\n  ")[:4] == ["[\n  0.0", "-0.0", "0.0", "-0.0"]
    assert text == _stdlib_canonical(edge)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_canonical_dumps_array_rejects_non_finite(bad):
    values = np.array([1.0, bad, 2.0, float("nan")])
    with pytest.raises(ValueError, match="not JSON compliant") as from_array:
        canonical_dumps({"x": values})
    with pytest.raises(ValueError, match="not JSON compliant") as from_list:
        canonical_dumps({"x": values.tolist()})
    assert str(from_array.value) == str(from_list.value)


def test_canonical_dumps_empty_array():
    empty = np.zeros(0)
    assert canonical_dumps(empty) == "[]\n"
    assert canonical_dumps({"e": empty}) == canonical_dumps({"e": []})


@pytest.mark.parametrize("bad", [
    np.arange(3),
    np.arange(3, dtype=np.float32),
    np.zeros((2, 2)),
    np.array(1.0),
])
def test_canonical_dumps_rejects_other_arrays(bad):
    with pytest.raises(TypeError, match="not JSON serializable"):
        canonical_dumps({"x": bad})
    with pytest.raises(TypeError, match="not JSON serializable"):
        canonical_dumps([1.0, bad])


@pytest.mark.parametrize("bad", [{"x": [float("nan")]}, {"x": np.int64(1)}])
def test_write_json_leaves_target_untouched_on_encoding_error(tmp_path, bad):
    path = tmp_path / "doc.json"
    write_json(path, {"keep": 1})
    before = path.read_bytes()
    with pytest.raises((TypeError, ValueError)):
        write_json(path, bad)
    assert path.read_bytes() == before


@pytest.mark.parametrize("name", sorted(_CANONICAL_CORPUS))
def test_write_json_gives_canonical_dumps_bytes(tmp_path, name):
    # The streamed writer and canonical_dumps share one encoder; the file
    # holds exactly the joined text, and no temporary file is left.
    doc = _CANONICAL_CORPUS[name](tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    write_json(out / "doc.json", doc)
    assert (out / "doc.json").read_bytes() == canonical_dumps(doc).encode()
    assert os.listdir(out) == ["doc.json"]


def test_write_json_nan_deep_in_document_leaves_no_file(tmp_path):
    # The statistics document is written before the NaN is reached ("a" sorts
    # first), so the error comes mid-write; neither the target nor a
    # temporary file is left behind.
    doc = {"a": _stats_document(tmp_path),
           "z": [{"deep": [1.0, [0.5, float("nan")]]}]}
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(ValueError, match="not JSON compliant: nan"):
        write_json(out / "doc.json", doc)
    assert os.listdir(out) == []


def test_write_json_replaces_file_and_keeps_mode_and_links(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("old")
    path.chmod(0o640)
    write_json(path, {"k": 1})
    assert path.read_text() == canonical_dumps({"k": 1})
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    link = tmp_path / "link.json"
    link.symlink_to(path)
    write_json(link, [2.5])
    assert link.is_symlink() and path.read_text() == canonical_dumps([2.5])


def test_write_json_writes_through_a_pipe(tmp_path):
    # A path that is not a regular file (a FIFO here, /dev/stdout in use) is
    # written directly, not replaced by a regular file.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_json(fifo, {"k": [1.5]})
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [canonical_dumps({"k": [1.5]}).encode()]
    assert stat.S_ISFIFO(fifo.stat().st_mode)


def test_write_json_read_json_round_trip(tmp_path):
    doc = {"k": [1.5, -2.0], "n": 3, "s": "text"}
    path = tmp_path / "doc.json"
    write_json(path, doc)
    assert read_json(path) == doc
    assert path.read_text() == canonical_dumps(doc)


def test_float_precision_survives_round_trip(tmp_path):
    # 17-significant-digit shortest repr: an awkward double must come back
    # bit-identical through write + read.
    value = 0.1 + 0.2  # 0.30000000000000004
    path = tmp_path / "f.json"
    write_json(path, {"v": value})
    assert read_json(path)["v"] == value
