"""End-to-end command-line behavior: pipelines, flags, and exit codes."""

import dataclasses
import gc
import json
import multiprocessing
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from infomargin import cli as cli_module
from infomargin import fileio as fileio_module
from infomargin import stats as stats_module
from infomargin import trainer as trainer_module
from infomargin.cli import main
from infomargin.fileio import (
    canonical_dumps,
    read_json,
    write_embeddings_binary,
    write_json,
)
from infomargin.trainer import generate_dataset, parse_run_config, run_report_to_json, train

EQUAL_SPREAD = files("infomargin") / "examples" / "equal-spread.json"
HETEROGENEOUS = files("infomargin") / "examples" / "heterogeneous.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_sample_embeddings(path, seed=101, n=6, p=3, C=2):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    cats = np.arange(n) % C
    write_embeddings_binary(path, X, cats)
    # return the f32-rounded payload actually stored on disk
    return X.astype(np.float32).astype(np.float64), cats


# ------------------------------------------------------------------- stats


def test_stats_matches_pooled_direct_computation(tmp_path, capsys):
    # 6 records with queue length 2: the snapshot windows tile the stream
    # exactly, so the merged output equals a plain per-category computation.
    path = tmp_path / "e.bin"
    X, cats = write_sample_embeddings(path)
    code, out, err = run(capsys, "stats", str(path), "--queue-len", "2")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["p"] == 3
    for entry in doc["categories"]:
        rows = X[cats == entry["id"]]
        mean = rows.mean(axis=0)
        cov = (rows - mean).T @ (rows - mean) / rows.shape[0]
        assert np.allclose(entry["mean"], mean, rtol=1e-10, atol=1e-12)
        assert np.allclose(np.reshape(entry["cov_row_major"], (3, 3)), cov,
                           rtol=1e-10, atol=1e-12)


def test_stats_counts_each_record_once(tmp_path, capsys):
    # 40 records against queue length 7 (40 mod 7 = 5): the final partial
    # window holds only the 5 pending records, so the counts sum to 40.
    path = tmp_path / "e.bin"
    X, cats = write_sample_embeddings(path, n=40, p=3, C=3)
    code, out, _ = run(capsys, "stats", str(path), "--queue-len", "7")
    assert code == 0
    entries = json.loads(out)["categories"]
    assert sum(entry["count"] for entry in entries) == 40
    for entry in entries:
        rows = X[cats == entry["id"]]
        assert entry["count"] == rows.shape[0]
        assert np.allclose(entry["mean"], rows.mean(axis=0), rtol=1e-10, atol=1e-12)


def test_stats_binary_memory_does_not_grow_with_record_count(tmp_path, capsys):
    # An embedding file is read one window of d records at a time and
    # each window is folded away, so `stats` peaks at the same traced bytes
    # on 10*d and on 50*d records; a whole-file read would grow with N.
    d, p, C = 128, 4, 3
    rng = np.random.default_rng(103)
    out = tmp_path / "stats.json"
    peak = {}
    for K in (10, 50):
        path = tmp_path / f"e{K}"
        write_embeddings_binary(path, rng.normal(size=(K * d, p)), np.arange(K * d) % C)
        argv = ["stats", str(path), "--queue-len", str(d), "--out", str(out)]
        assert main(argv) == 0  # warm up numpy's lazy imports and caches
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak[K] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(entry["count"] for entry in json.loads(out.read_text())["categories"]) == K * d
    # A tenth of the 40*d extra rows at float64: room for the interpreter's
    # own few-kB jitter, far below a whole-file read (over 40*d*p*8 bytes).
    assert peak[50] - peak[10] < 40 * d * p * 8 // 10


def test_stats_non_finite_after_first_window_names_file_record(tmp_path, capsys):
    # Record 17 lies in the fourth window of 5; the error counts records
    # and bytes across the whole file, not within the window.
    p, n, bad = 2, 30, 17
    rng = np.random.default_rng(104)
    path = tmp_path / "nan.bin"
    write_embeddings_binary(path, rng.normal(size=(n, p)), np.arange(n) % 2)
    record_size = 4 + 4 * p
    offset = 20 + bad * record_size + 4
    raw = bytearray(path.read_bytes())
    raw[offset + 4:offset + 8] = struct.pack("<f", np.nan)
    path.write_bytes(bytes(raw))
    code, out, err = run(capsys, "stats", str(path), "--queue-len", "5")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"non-finite coordinate in record {bad} at byte offset {offset}" in err


def test_stats_size_mismatch_fails_before_any_window(tmp_path, capsys, monkeypatch):
    path = tmp_path / "long.bin"
    write_sample_embeddings(path, n=12)
    path.write_bytes(path.read_bytes() + b"\0" * 4)
    windows = []
    real = stats_module._window_stats
    monkeypatch.setattr(stats_module, "_window_stats", lambda *a: windows.append(1) or real(*a))
    code, out, err = run(capsys, "stats", str(path), "--queue-len", "2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "expected file size" in err
    assert windows == []


@pytest.mark.parametrize("d", ["0", "-3"])
def test_stats_bad_queue_len_rejected_before_any_record(tmp_path, capsys, monkeypatch, d):
    path = tmp_path / "e.bin"
    write_sample_embeddings(path)
    reads = []
    real = np.fromfile
    monkeypatch.setattr(np, "fromfile", lambda *a, **k: reads.append(1) or real(*a, **k))
    code, out, err = run(capsys, "stats", str(path), "--queue-len", d)
    assert code == 2 and out == ""
    assert err == f"error: queue capacity must be >= 1, got {d}\n"
    assert reads == []


def test_stats_empty_input_fails(tmp_path, capsys):
    path = tmp_path / "empty.bin"
    path.write_bytes(struct.pack("<8sIQ", b"IGAMEMB1", 1, 0))
    code, out, err = run(capsys, "stats", str(path))
    assert code == 2
    assert err.startswith("error:")
    assert "no records" in err


_NOT_EMBEDDINGS = "at byte offset 0 (expected b'IGAMEMB1')"


@pytest.mark.parametrize("argv, message", [
    (["stats", "{tmp}/x.json"], "x.json: bad magic b'{\"p\": 1,' " + _NOT_EMBEDDINGS),
    (["loss-eval", "--features", "{tmp}/x.json", "--weights", "{tmp}/w.bin"],
     "x.json: bad magic b'{\"p\": 1,' " + _NOT_EMBEDDINGS),
    (["stats", "{tmp}/x.csv"], "x.csv: bad magic b'category' " + _NOT_EMBEDDINGS),
    (["loss-eval", "--features", "{tmp}/x.csv", "--weights", "{tmp}/w.bin"],
     "x.csv: bad magic b'category' " + _NOT_EMBEDDINGS),
    (["stats", "{tmp}/x.bin", "--format", "json"], "unrecognized arguments: --format json"),
    (["loss-eval", "--features", "{tmp}/x.bin", "--weights", "{tmp}/x.bin", "--format", "csv"],
     "unrecognized arguments: --format csv"),
], ids=["stats", "loss-eval", "stats-csv", "loss-eval-csv", "format-flag",
        "loss-eval-format-flag"])
def test_json_embedding_input_exits_two(tmp_path, capsys, argv, message):
    # JSON and CSV are not embedding formats: a document in the old JSON
    # layout or a file with the old CSV header fails the binary magic. There
    # is one format, so `--format` is no flag of any subcommand. `loss-eval`
    # reads its weights before its features, so it gets a valid weight file.
    (tmp_path / "x.json").write_text('{"p": 1, "records": [{"category": 0, "vector": [1.0]}]}')
    (tmp_path / "x.csv").write_text("category,e0\n0,1.0\n")
    write_sample_embeddings(tmp_path / "x.bin")
    write_sample_embeddings(tmp_path / "w.bin", n=2)
    try:
        code = main([arg.format(tmp=tmp_path) for arg in argv])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    (line,) = [ln for ln in captured.err.splitlines() if "error:" in ln]
    assert message in line


@pytest.mark.parametrize("content, message", [
    (b"", "truncated header, 0 bytes at byte offset 0 (need 20)"),
    (b"categroy,e0\n0,1.0\n", "bad magic b'categroy' " + _NOT_EMBEDDINGS),
    (b"category,e0,e2\n0,1.0,2.0\n", "bad magic b'category' " + _NOT_EMBEDDINGS),
    (struct.pack("<8sIQ", b"IGAMEMB1", 2, 3) + struct.pack("<Iff", 0, 1.0, 2.0),
     "declared 3 records of 12 bytes, expected file size 56, got 32 (mismatch at byte offset 32)"),
], ids=["empty", "misspelled-csv-header", "csv-header", "truncated-binary"])
@pytest.mark.parametrize("name", ["e.bin", "e.csv"])
def test_stats_malformed_embedding_file_exits_two(tmp_path, capsys, content, message, name):
    # Whatever the file is called, it is read as binary.
    path = tmp_path / name
    path.write_bytes(content)
    code, out, err = run(capsys, "stats", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path}: {message}\n"


def test_stats_writes_out_file(tmp_path, capsys):
    path = tmp_path / "e.bin"
    write_sample_embeddings(path)
    out_path = tmp_path / "stats.json"
    code, out, _ = run(capsys, "stats", str(path), "--out", str(out_path))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["p"] == 3


# -------------------------------------------------------------------- info


def test_info_identity_covariance_gives_two_bits(tmp_path, capsys):
    stats = {
        "p": 4,
        "categories": [
            {
                "id": 0,
                "count": 400,
                "mean": [0.0] * 4,
                "cov_row_major": np.eye(4).reshape(-1).tolist(),
            }
        ],
    }
    path = tmp_path / "stats.json"
    write_json(path, stats)
    code, out, _ = run(capsys, "info", str(path))
    assert code == 0
    doc = json.loads(out)
    # clip level (1 - sqrt(4/400))^2 = 0.81 < 1: the spectrum is untouched
    # and the amount is (4/2) * log2(2) = 2 exactly.
    assert doc["info"]["0"] == pytest.approx(2.0, abs=1e-12)


def test_info_single_instance_category_clipped_closed_form(tmp_path, capsys):
    stats = {
        "p": 2,
        "categories": [
            {"id": 5, "count": 1, "mean": [1.0, -2.0], "cov_row_major": [0.0] * 4}
        ],
    }
    path = tmp_path / "stats.json"
    write_json(path, stats)
    code, out, _ = run(capsys, "info", str(path))
    assert code == 0
    lam = (1.0 - np.sqrt(2.0)) ** 2
    expected = 1.0 * np.log2(1.0 + lam)
    assert json.loads(out)["info"]["5"] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("second, message", [
    ({"id": 5, "count": 3}, "appears more than once"),
    ({"id": 6, "count": 0}, "count must be >= 1"),
    ({"id": 2.7}, "categories[1].id: expected an integer, got 2.7"),
    ({"id": 6, "count": 3.9}, "categories[1].count: expected an integer, got 3.9"),
    ({"id": -3}, "categories[1].id must be >= 0, got -3"),
])
def test_info_rejects_duplicate_id_and_zero_count(tmp_path, capsys, second, message):
    entry = {"id": 5, "count": 2, "mean": [1.0, -2.0], "cov_row_major": [1.0, 0.0, 0.0, 1.0]}
    path = tmp_path / "stats.json"
    write_json(path, {"p": 2, "categories": [entry, dict(entry, **second)]})
    code, out, err = run(capsys, "info", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("doc", [
    {"p": 2, "categories": 7},
    {"p": 2, "categories": [{"id": 0, "count": 2, "mean": 1.0, "cov_row_major": [1.0, 0.0, 0.0, 1.0]}]},
    {"p": 1.5, "categories": [{"id": 0, "count": 2, "mean": [1.0], "cov_row_major": [1.0]}]},
    {"p": 1, "categories": [{"id": 0, "count": True, "mean": [1.0], "cov_row_major": [1.0]}]},
    {"p": 0, "categories": []},
    {"p": 2, "categories": [[1]]},
    {"p": 2, "categories": ["a"]},
    {"p": 2, "categories": [None]},
])
def test_info_malformed_stats_exits_two(tmp_path, capsys, doc):
    path = tmp_path / "stats.json"
    write_json(path, doc)
    code, out, err = run(capsys, "info", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    entries = doc["categories"]
    if isinstance(entries, list) and entries and not isinstance(entries[0], dict):
        json_type = {list: "array", str: "string", type(None): "null"}[type(entries[0])]
        assert err == f"error: categories[0]: expected an object, got {json_type}\n"


def test_stats_out_peaks_below_document_size(tmp_path):
    # `--out` JSON is written as it is made, so `stats` never holds the
    # document text: its traced peak (a window, the running statistics, one
    # entry's text) stays below the size of the file it writes. Building the
    # text whole, then encoding it, peaked at over twice the file size.
    rng = np.random.default_rng(105)
    N, p, C = 4000, 64, 40
    path = tmp_path / "e.bin"
    write_embeddings_binary(path, rng.normal(size=(N, p)), rng.integers(0, C, size=N))
    out = tmp_path / "stats.json"
    argv = ["stats", str(path), "--queue-len", "1000", "--out", str(out)]
    assert main(argv) == 0  # warm up numpy's lazy imports and caches
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert size > 4_000_000
    assert peak < size


def test_stats_stdout_peaks_below_document_size(tmp_path, monkeypatch):
    # Stdout is written as it is made too, like `--out`: with stdout sent
    # to a file (capsys would hold the text), the traced peak stays below
    # the document's size. Building the text whole peaked above it.
    rng = np.random.default_rng(105)
    N, p, C = 4000, 64, 40
    path = tmp_path / "e.bin"
    write_embeddings_binary(path, rng.normal(size=(N, p)), rng.integers(0, C, size=N))
    argv = ["stats", str(path), "--queue-len", "1000"]
    out = tmp_path / "stdout.json"
    with open(out, "w") as fh:
        monkeypatch.setattr(sys, "stdout", fh)
        assert main(argv) == 0  # warm up numpy's lazy imports and caches
        fh.truncate(0)
        fh.seek(0)
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    size = out.stat().st_size
    assert size > 4_000_000
    assert peak < size


_HAND_WRITTEN_STATS = """{"categories":[ {"cov_row_major":[2,0.5,
   0.5, 1e0], "mean":[1, -0], "id":7, "count":3},
 {"id": 2, "count": 1,   "mean": [0.25, 3], "cov_row_major": [0,0,0,0]} ],
 "p":2}
"""


def _info_without_hook(monkeypatch, capsys, path):
    with monkeypatch.context() as m:
        m.setattr(cli_module, "stats_entry_arrays", None)
        return run(capsys, "info", str(path))


@pytest.mark.parametrize("source", ["canonical", "hand-written"])
def test_info_same_bytes_with_and_without_entry_hook(tmp_path, capsys, monkeypatch, source):
    path = tmp_path / "stats.json"
    if source == "canonical":
        write_sample_embeddings(tmp_path / "e.bin", n=40, p=3, C=3)
        run(capsys, "stats", str(tmp_path / "e.bin"), "--queue-len", "7", "--out", str(path))
    else:
        path.write_text(_HAND_WRITTEN_STATS)
    seen = []

    def counting_hook(obj):
        seen.append("mean" in obj)
        return stats_module.stats_entry_arrays(obj)

    # `info` reads through the hook, which sees each entry and then the document.
    with monkeypatch.context() as m:
        m.setattr(cli_module, "stats_entry_arrays", counting_hook)
        code, out, err = run(capsys, "info", str(path))
    assert code == 0 and err == ""
    assert seen == [True] * len(json.loads(out)["info"]) + [False]
    assert _info_without_hook(monkeypatch, capsys, path) == (code, out, err)


@pytest.mark.parametrize("field, text, message", [
    ("mean", '["a", 1.0]', "expected a list of numbers"),
    ("cov_row_major", "[1.0, [0.0, 0.0], 1.0]", "inhomogeneous shape"),
    ("cov_row_major", "[1.0, 0.0, 1.0]", "cannot reshape array of size 3 into shape (2,2)"),
    ("mean", "[1" + "0" * 400 + ", 1.0]", "int too large to convert to float"),
], ids=["string", "ragged", "wrong-length", "huge-int"])
def test_info_malformed_entry_same_error_with_and_without_hook(
        tmp_path, capsys, monkeypatch, field, text, message):
    values = {"mean": "[0.0, 1.0]", "cov_row_major": "[1.0, 0.0, 0.0, 1.0]", field: text}
    path = tmp_path / "stats.json"
    path.write_text('{"p": 2, "categories": [{"id": 0, "count": 2, "mean": %(mean)s, '
                    '"cov_row_major": %(cov_row_major)s}]}' % values)
    code, out, err = run(capsys, "info", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: categories[0].{field}: ") and err.count("\n") == 1
    assert message in err
    assert _info_without_hook(monkeypatch, capsys, path) == (code, out, err)


@pytest.mark.parametrize("field, text", [
    ("mean", '["0.5", 1.0]'),
    ("mean", "[null, 1.0]"),
    ("cov_row_major", '["1.5", 0, 0, 1]'),
    ("mean", "[true, 0.5]"),
], ids=["numeric-string", "null", "cov-string", "boolean"])
def test_info_rejects_strings_and_nulls_as_numbers(
        tmp_path, capsys, monkeypatch, field, text):
    # Converting with dtype=float64 alone reads "0.5" as 0.5 and null as NaN,
    # and numpy promotes a boolean among numbers to 1.0.
    values = {"mean": "[0.0, 1.0]", "cov_row_major": "[1.0, 0.0, 0.0, 1.0]", field: text}
    path = tmp_path / "stats.json"
    path.write_text('{"p": 2, "categories": [{"id": 0, "count": 2, "mean": %(mean)s, '
                    '"cov_row_major": %(cov_row_major)s}]}' % values)
    code, out, err = run(capsys, "info", str(path))
    assert code == 2 and out == ""
    assert err == f"error: categories[0].{field}: expected a list of numbers\n"
    assert _info_without_hook(monkeypatch, capsys, path) == (code, out, err)


@pytest.mark.parametrize("field, text, message", [
    ("mean", "[0.0, 1e400]", "mean: expected finite numbers, got inf at index 1"),
    ("cov_row_major", "[1.0, 0.0, 0.0, -1e400]",
     "cov_row_major: expected finite numbers, got -inf at index 3"),
], ids=["mean", "cov"])
def test_info_rejects_numbers_beyond_float64(tmp_path, capsys, monkeypatch, field, text, message):
    # `json.loads` reads these literals as +-inf.
    values = {"mean": "[0.0, 1.0]", "cov_row_major": "[1.0, 0.0, 0.0, 1.0]", field: text}
    path = tmp_path / "stats.json"
    path.write_text('{"p": 2, "categories": [{"id": 0, "count": 2, "mean": %(mean)s, '
                    '"cov_row_major": %(cov_row_major)s}]}' % values)
    code, out, err = run(capsys, "info", str(path))
    assert code == 2 and out == ""
    assert err == f"error: categories[0].{message}\n"
    assert _info_without_hook(monkeypatch, capsys, path) == (code, out, err)


@pytest.mark.parametrize("cov, message", [
    ([1.0, 0.5, 0.2, 1.0], "covariance is not symmetric: max |A - A^T| = 0.3 against scale 1"),
    ([1.0, 0.0, 0.0, -0.5], "covariance is not positive semidefinite: eigenvalue -0.5"),
], ids=["asymmetric", "non-psd"])
def test_info_errors_name_the_category(tmp_path, capsys, cov, message):
    good = {"id": 3, "count": 4, "mean": [0.0, 0.0], "cov_row_major": [1.0, 0.0, 0.0, 1.0]}
    path = tmp_path / "stats.json"
    write_json(path, {"p": 2, "categories": [good, dict(good, id=7, cov_row_major=cov)]})
    code, out, err = run(capsys, "info", str(path))
    assert code == 2 and out == ""
    assert err == f"error: category 7: {message}\n"


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_info_rejects_non_standard_json_constants(tmp_path, capsys, constant):
    # `json.loads` takes these literals as floats unless told otherwise.
    path = tmp_path / "stats.json"
    path.write_text('{"p": 1, "categories": [{"id": 0, "count": 2, "mean": [%s], '
                    '"cov_row_major": [1.0]}]}' % constant)
    code, out, err = run(capsys, "info", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path}: invalid JSON: {constant} is not a JSON number\n"


def test_info_rejects_id_beyond_int64_before_any_eigendecomposition(
        tmp_path, capsys, monkeypatch):
    entry = {"id": 0, "count": 2, "mean": [0.0], "cov_row_major": [1.0]}
    path = tmp_path / "stats.json"
    write_json(path, {"p": 1, "categories": [entry, dict(entry, id=2**63)]})
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    code, out, err = run(capsys, "info", str(path))
    assert code == 2 and out == ""
    assert err == f"error: categories[1].id: category id {2**63} exceeds {2**63 - 1}\n"


def test_stats_info_pipeline_round_trips(tmp_path, capsys):
    path = tmp_path / "e.bin"
    write_sample_embeddings(path, n=40, p=3, C=2)
    stats_path = tmp_path / "stats.json"
    run(capsys, "stats", str(path), "--queue-len", "10", "--out", str(stats_path))
    code, out, _ = run(capsys, "info", str(stats_path))
    assert code == 0
    doc = json.loads(out)
    assert set(doc["info"]) == {"0", "1"}
    assert all(v >= 0.0 for v in doc["info"].values())


# ----------------------------------------------------------------- margins


def write_info(path, amounts):
    write_json(path, {"epoch": 0, "info": {str(k): v for k, v in amounts.items()}})


def test_margins_uniform_table_is_zero_matrix(tmp_path, capsys):
    path = tmp_path / "info.json"
    write_info(path, {0: 1.3, 1: 1.3, 2: 1.3})
    code, out, _ = run(capsys, "margins", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["C"] == 3
    assert doc["margins_row_major"] == [0.0] * 9


def test_margins_ratio_e_table_gives_one_over_pi(tmp_path, capsys):
    # These two amounts normalize (with ibar = mean) to I' values in exact
    # ratio e, so the rich-over-poor margin is ln(e)/pi = 1/pi.
    path = tmp_path / "info.json"
    write_info(path, {0: 0.7169023329408962, 1: 0.2830976670591038})
    code, out, _ = run(capsys, "margins", str(path), "--ibar", "mean")
    assert code == 0
    m = np.reshape(json.loads(out)["margins_row_major"], (2, 2))
    assert m[0, 1] == pytest.approx(1.0 / np.pi, abs=1e-9)
    assert m[1, 0] == 0.0


def test_margins_direction_flag_transposes(tmp_path, capsys):
    path = tmp_path / "info.json"
    write_info(path, {0: 0.9, 1: 0.3, 2: 0.1})
    _, out_t, _ = run(capsys, "margins", str(path))
    _, out_r, _ = run(capsys, "margins", str(path), "--direction", "rival")
    mt = np.reshape(json.loads(out_t)["margins_row_major"], (3, 3))
    mr = np.reshape(json.loads(out_r)["margins_row_major"], (3, 3))
    assert np.array_equal(mr, mt.T)
    assert not np.array_equal(mr, mt)


@pytest.mark.parametrize("flag, value", [("--info-variant", "double-exp"),
                                         ("--margin-variant", "clamped")])
def test_margins_variant_flags_are_gone(tmp_path, capsys, flag, value):
    # The paper's one rule is the only one, so neither variant is a flag.
    path = tmp_path / "info.json"
    write_info(path, {0: 0.9, 1: 0.3})
    with pytest.raises(SystemExit) as exc:
        main(["margins", str(path), flag, value])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"unrecognized arguments: {flag} {value}" in captured.err


def test_margins_info_list_exits_two(tmp_path, capsys):
    path = tmp_path / "info.json"
    write_json(path, {"epoch": 0, "info": [1.0, 2.0]})
    code, out, err = run(capsys, "margins", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# Most documents carry the "epoch" key that `info` wrote before it was
# removed; the reader ignores it, so each fails on its "info" map alone.
@pytest.mark.parametrize("doc, message", [
    ({"epoch": 0, "info": {"1": 0.5, "01": 0.7, "2": 0.1}}, "category 1 appears more than once"),
    ({"info": {"0": 0.5, "-0": 0.7}}, "category 0 appears more than once"),
    ({"epoch": 0, "info": {"-1": 0.5, "2": 0.7}}, "category id must be >= 0, got -1"),
    ({"epoch": 0, "info": {"0": "0.5", "1": 0.6, "2": 0.7}}, "info.0: expected a number, got '0.5'"),
    ({"epoch": 0, "info": {"0": 0.5, "1": True, "2": 0.7}}, "info.1: expected a number, got True"),
    ({"epoch": 0, "info": {"0": 0.5, str(2**63): 0.7}},
     f"category id: category id {2**63} exceeds {2**63 - 1}"),
])
def test_margins_rejects_aliased_ids_and_fractional_epoch(tmp_path, capsys, doc, message):
    path = tmp_path / "info.json"
    write_json(path, doc)
    code, out, err = run(capsys, "margins", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("key", ["1_0", " 2", "+3", "07", "1.5", "x"])
def test_margins_rejects_non_canonical_category_key(tmp_path, capsys, key):
    # `info` writes none of these spellings; int() accepts the first four.
    path = tmp_path / "info.json"
    write_json(path, {"epoch": 0, "info": {"0": 0.5, key: 0.7}})
    code, out, err = run(capsys, "margins", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"info key {key!r} is not a canonical decimal category id" in err


@pytest.mark.parametrize("amounts", [
    {0: 1e308, 1: 9e307},  # the sum i_bar overflows
    {0: 1.5e308, 1: 1e307},  # i_bar is finite, i_bar * sqrt(C) is not
])
def test_margins_ibar_overflow_exits_three(tmp_path, capsys, amounts):
    path = tmp_path / "info.json"
    out_path = tmp_path / "margins.json"
    write_info(path, amounts)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "margins", str(path), "--out", str(out_path))
    assert code == 3 and out == ""
    assert err.startswith("numerical error:") and err.count("\n") == 1
    assert "i_bar" in err
    assert caught == []
    assert not out_path.exists()


def test_margins_overflow_exits_three(tmp_path, capsys):
    path = tmp_path / "info.json"
    amounts = {0: 100.0}
    amounts.update({i: 1e-6 for i in range(1, 50)})
    write_info(path, amounts)
    code, out, err = run(capsys, "margins", str(path), "--ibar", "mean")
    assert code == 3
    assert err.startswith("numerical error:")
    assert "use ibar='sum' (CLI --ibar sum), which cannot overflow" in err


# --------------------------------------------------------------- loss-eval


@pytest.fixture
def loss_files(tmp_path):
    rng = np.random.default_rng(103)
    C, p, n = 3, 4, 12
    W = rng.normal(size=(C, p))
    X = rng.normal(size=(n, p))
    y = rng.integers(0, C, size=n)
    write_embeddings_binary(tmp_path / "w.bin", W, np.arange(C))
    write_embeddings_binary(tmp_path / "x.bin", X, y)
    return tmp_path


def test_loss_eval_zero_margins_equals_normface(loss_files, capsys):
    margins_path = loss_files / "m.json"
    write_json(margins_path, {"C": 3, "margins_row_major": [0.0] * 9})
    _, out_igam, _ = run(
        capsys, "loss-eval", "--features", str(loss_files / "x.bin"),
        "--weights", str(loss_files / "w.bin"), "--loss", "igam",
        "--margins", str(margins_path), "--s", "10",
    )
    _, out_nf, _ = run(
        capsys, "loss-eval", "--features", str(loss_files / "x.bin"),
        "--weights", str(loss_files / "w.bin"), "--loss", "normface", "--s", "10",
    )
    a, b = json.loads(out_igam), json.loads(out_nf)
    assert a["losses"] == b["losses"]
    assert a["n"] == b["n"] == 12
    assert a["loss_mean"] == b["loss_mean"]
    assert set(a) == {"loss", "n", "loss_mean", "losses", "saturated", "clamped"}


def test_loss_eval_margins_never_raise_the_loss(loss_files, capsys):
    margins = np.zeros((3, 3))
    margins[:, 0] = 0.3  # every rival faces a wider angle against class 0
    margins[0, 0] = 0.0
    write_json(loss_files / "m.json", {"C": 3, "margins_row_major": margins.reshape(-1).tolist()})
    _, out_m, _ = run(
        capsys, "loss-eval", "--features", str(loss_files / "x.bin"),
        "--weights", str(loss_files / "w.bin"), "--loss", "igam",
        "--margins", str(loss_files / "m.json"),
    )
    _, out_0, _ = run(
        capsys, "loss-eval", "--features", str(loss_files / "x.bin"),
        "--weights", str(loss_files / "w.bin"), "--loss", "normface",
    )
    with_m = json.loads(out_m)["losses"]
    without = json.loads(out_0)["losses"]
    assert all(a <= b + 1e-12 for a, b in zip(with_m, without))


def test_loss_eval_reports_clamped_entries(loss_files, capsys):
    # Margins of 3 rad push most rival angles past pi.
    margins = np.full((3, 3), 3.0)
    np.fill_diagonal(margins, 0.0)
    write_json(loss_files / "m.json", {"C": 3, "margins_row_major": margins.reshape(-1).tolist()})
    code, out, _ = run(
        capsys, "loss-eval", "--features", str(loss_files / "x.bin"),
        "--weights", str(loss_files / "w.bin"), "--loss", "igam",
        "--margins", str(loss_files / "m.json"), "--s", "10",
    )
    assert code == 0
    doc = json.loads(out)
    assert 0 < doc["clamped"] <= 2 * doc["n"]
    assert doc["saturated"] == 0


@pytest.mark.parametrize("loss", ["igam", "normface"])
def test_loss_eval_non_finite_loss_exits_3(loss_files, capsys, loss):
    # At s = 1e300 the logit gaps overflow exp, so the losses are inf.
    code, out, err = run(
        capsys, "loss-eval", "--features", str(loss_files / "x.bin"),
        "--weights", str(loss_files / "w.bin"), "--loss", loss, "--s", "1e300",
    )
    assert code == 3 and out == ""
    assert err == f"numerical error: non-finite loss inf at sample 0 (loss={loss}, s=1e+300)\n"


def test_loss_eval_ce_ignores_scale(loss_files, capsys):
    _, out_a, _ = run(
        capsys, "loss-eval", "--features", str(loss_files / "x.bin"),
        "--weights", str(loss_files / "w.bin"), "--loss", "ce", "--s", "5",
    )
    _, out_b, _ = run(
        capsys, "loss-eval", "--features", str(loss_files / "x.bin"),
        "--weights", str(loss_files / "w.bin"), "--loss", "ce", "--s", "50",
    )
    assert json.loads(out_a)["losses"] == json.loads(out_b)["losses"]


def test_loss_eval_rejects_bad_weight_ids(tmp_path, capsys):
    rng = np.random.default_rng(104)
    write_embeddings_binary(tmp_path / "w.bin", rng.normal(size=(3, 4)), np.array([0, 1, 1]))
    write_embeddings_binary(tmp_path / "x.bin", rng.normal(size=(2, 4)), np.array([0, 1]))
    code, _, err = run(
        capsys, "loss-eval", "--features", str(tmp_path / "x.bin"),
        "--weights", str(tmp_path / "w.bin"),
    )
    assert code == 2
    assert "class ids 0..2 exactly once" in err


def test_loss_eval_margin_shape_mismatch(loss_files, capsys):
    write_json(loss_files / "m.json", {"C": 2, "margins_row_major": [0.0] * 4})
    code, _, err = run(
        capsys, "loss-eval", "--features", str(loss_files / "x.bin"),
        "--weights", str(loss_files / "w.bin"), "--loss", "igam",
        "--margins", str(loss_files / "m.json"),
    )
    assert code == 2
    assert "2x2" in err and "3 classes" in err
    # A margin file with a loss that takes none is refused before any file is read.
    for loss in ("ce", "normface"):
        code, out, err = run(
            capsys, "loss-eval", "--features", str(loss_files / "absent.bin"),
            "--weights", str(loss_files / "absent.bin"), "--loss", loss,
            "--margins", str(loss_files / "absent.json"),
        )
        assert code == 2 and out == ""
        assert err == "error: --margins applies only to --loss igam\n"


def test_loss_eval_checks_margins_and_weights_before_reading_features(
        loss_files, capsys, monkeypatch):
    # The margin file is read and checked first, then the weights and their
    # class count, and the features, often the largest file, only last.
    read = []
    read_embeddings = cli_module.fileio.read_embeddings

    def recording(path):
        read.append(Path(path).name)
        return read_embeddings(path)

    monkeypatch.setattr(cli_module.fileio, "read_embeddings", recording)
    argv = ["loss-eval", "--features", str(loss_files / "x.bin"),
            "--weights", str(loss_files / "w.bin"), "--loss", "igam", "--margins"]
    code, out, err = run(capsys, *argv, str(loss_files / "absent.json"))
    assert code == 2 and out == "" and "absent.json" in err
    assert read == []
    write_json(loss_files / "m.json", {"C": 2, "margins_row_major": [0.0] * 4})
    code, out, err = run(capsys, *argv, str(loss_files / "m.json"))
    assert code == 2 and out == "" and "2x2" in err
    assert read == ["w.bin"]
    write_json(loss_files / "m.json", {"C": 3, "margins_row_major": [0.0] * 9})
    code, out, err = run(capsys, *argv, str(loss_files / "m.json"))
    assert code == 0 and err == ""
    assert read == ["w.bin", "w.bin", "x.bin"]


@pytest.mark.parametrize("flat", [
    ["0", True, "0.25", 0],  # numpy would parse the strings as floats
    [0.0, None, 0.25, 0.0],
    [False, True, True, False],
    [[0.0, 0.1], [0.2, 0.0]],  # every margin file holds a flat row-major list
])
def test_loss_eval_margins_must_be_numbers(loss_files, capsys, flat):
    write_json(loss_files / "m.json", {"C": 2, "margins_row_major": flat})
    code, out, err = run(
        capsys, "loss-eval", "--features", str(loss_files / "x.bin"),
        "--weights", str(loss_files / "w.bin"), "--loss", "igam",
        "--margins", str(loss_files / "m.json"),
    )
    assert code == 2 and out == ""
    assert err == "error: margins_row_major: expected a list of numbers\n"


def test_loss_eval_rejects_negative_class_count(loss_files, capsys):
    # C * C == 1 matches the one entry, so only the C check stops reshape(-1, -1).
    write_json(loss_files / "m.json", {"C": -1, "margins_row_major": [0.0]})
    code, out, err = run(
        capsys, "loss-eval", "--features", str(loss_files / "x.bin"),
        "--weights", str(loss_files / "w.bin"), "--loss", "igam",
        "--margins", str(loss_files / "m.json"),
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "C must be >= 1" in err


# -------------------------------------------------------------------- plan


def test_plan_grid_worked_example(capsys):
    code, out, _ = run(capsys, "plan", "--instances", "55800", "--dim", "128",
                       "--classes", "20")
    assert code == 0
    doc = json.loads(out)
    assert doc["d_star"] == 11517
    assert doc["savings_percent"] == pytest.approx(56.421146953405014, rel=1e-13)
    assert doc["mb_original"] == pytest.approx(27.24609375)
    assert doc["mb_new"] == pytest.approx(11.87353515625)


def test_plan_exact_mode(capsys):
    code, out, _ = run(capsys, "plan", "--instances", "55800", "--dim", "128",
                       "--classes", "20", "--mode", "exact")
    assert code == 0
    doc = json.loads(out)
    assert doc["d_star"] == 11161
    assert doc["R"] == pytest.approx(23961 / 55800, rel=1e-14)


def test_plan_fixed_queue_len_reports_without_search(capsys):
    code, out, _ = run(capsys, "plan", "--instances", "605638", "--dim", "128",
                       "--classes", "80", "--queue-len", "68182")
    assert code == 0
    doc = json.loads(out)
    assert doc["d_star"] == 68182
    assert doc["mb_new"] == pytest.approx(78.2919921875)
    # --queue-len skips the optimizer entirely, so small N is fine.
    code, out, _ = run(capsys, "plan", "--instances", "999", "--dim", "8",
                       "--classes", "4", "--queue-len", "100")
    assert code == 0


@pytest.mark.parametrize("mode", ["grid", "exact"])
def test_plan_mode_with_queue_len_exits_two(capsys, mode):
    # --queue-len skips the search that --mode picks, so the pair is refused,
    # before the sizes are checked (--instances 0 would fail on its own).
    for instances in ("500", "0"):
        code, out, err = run(capsys, "plan", "--instances", instances, "--dim", "8",
                             "--classes", "3", "--mode", mode, "--queue-len", "100")
        assert code == 2 and out == ""
        assert err == "error: --mode applies only without --queue-len\n"


def test_plan_small_N_grid_fails(capsys):
    code, _, err = run(capsys, "plan", "--instances", "999", "--dim", "8",
                       "--classes", "4")
    assert code == 2
    assert "N >= 1000" in err and "--mode exact" in err


def test_plan_rejects_bad_flag_values(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["plan", "--instances", "1000", "--dim", "8", "--classes", "4",
              "--mode", "fast"])
    assert exc.value.code == 2
    capsys.readouterr()


# --------------------------------------------------------------------- toy


def test_toy_run_bundled_equal_spread(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, err = run(capsys, "toy", "run", str(EQUAL_SPREAD), "--out", str(out_path))
    assert code == 0, err
    doc = json.loads(out_path.read_text())
    assert doc["dataset"]["C"] == 5
    (igam_run,) = doc["runs"]
    assert igam_run["train"]["loss"] == "igam"
    # Equal spreads: information parity keeps the learned margins near zero.
    margins = np.abs(igam_run["final_margins"]["margins_row_major"])
    assert margins.max() < 0.02


def test_bundled_heterogeneous_config_parses(capsys):
    # The full benchmark run belongs to the acceptance suite; here just
    # validate the bundled config's schema and sweep layout.
    spec, configs = parse_run_config(read_json(str(HETEROGENEOUS)))
    assert spec.C == 10
    assert spec.p == 16
    assert spec.n_train == (500,) * 10
    assert [c.loss for c in configs] == ["ce", "normface", "igam"]
    assert configs[-1].margin_direction == "rival"
    assert configs[-1].ibar_mode == "mean"


def test_toy_run_seed_override_and_determinism(tmp_path, capsys):
    config = {
        "dataset": {"C": 2, "p": 3, "n_train": 30, "n_test": 20,
                    "spreads": [1.0, 2.0], "mean_separation": 3.0},
        "train": {"loss": "igam", "epochs": 2, "queue_len": 30, "batch_size": 16},
    }
    path = tmp_path / "cfg.json"
    write_json(path, config)
    _, out_a, _ = run(capsys, "toy", "run", str(path), "--seed", "7")
    _, out_b, _ = run(capsys, "toy", "run", str(path), "--seed", "7")
    _, out_c, _ = run(capsys, "toy", "run", str(path), "--seed", "8")
    assert out_a == out_b
    assert out_a != out_c
    doc = json.loads(out_a)
    assert doc["dataset"]["seed"] == 7
    assert doc["runs"][0]["train"]["seed"] == 7


def test_toy_run_loss_sweep_reports_bias_variance(tmp_path, capsys):
    config = {
        "dataset": {"C": 3, "p": 4, "n_train": 40, "n_test": 30,
                    "spreads": [0.5, 1.0, 2.0], "mean_separation": 3.0},
        "train": {"loss": ["ce", "normface", "igam"], "epochs": 2,
                  "queue_len": 60, "batch_size": 16},
    }
    path = tmp_path / "cfg.json"
    write_json(path, config)
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "toy", "run", str(path), "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert [r["train"]["loss"] for r in doc["runs"]] == ["ce", "normface", "igam"]
    for r in doc["runs"]:
        assert all(isinstance(ep["bias_variance"], float) for ep in r["epochs"])

    # and the summarizer condenses it to one entry per loss
    code, out, _ = run(capsys, "toy", "report", str(out_path))
    assert code == 0
    summary = json.loads(out)
    assert [r["loss"] for r in summary["runs"]] == ["ce", "normface", "igam"]
    for r, full in zip(summary["runs"], doc["runs"]):
        assert set(r) == {"loss", "epochs", "bias_variance", "pearson_info_acc",
                          "pearson_count_acc", "loss_mean", "mean_accuracy",
                          "min_class_accuracy"}
        # Equal counts leave the count correlation undefined: null, copied as is.
        assert r["pearson_count_acc"] is None
        for key in ("bias_variance", "pearson_info_acc", "pearson_count_acc", "loss_mean"):
            assert r[key] == full["epochs"][-1][key]


def test_toy_run_unknown_key_exits_two_with_path(tmp_path, capsys):
    config = {
        "dataset": {"C": 2, "p": 3, "n_train": 10, "n_test": 10,
                    "spreads": [1.0, 1.0], "mean_separation": 2.0,
                    "sigma": 0.1},
    }
    path = tmp_path / "cfg.json"
    write_json(path, config)
    code, _, err = run(capsys, "toy", "run", str(path))
    assert code == 2
    assert "dataset.sigma: unknown key" in err


@pytest.mark.parametrize("key, value", [("info_variant", "double-exp"),
                                        ("margin_variant", "clamped")])
def test_toy_run_removed_variant_key_exits_two(tmp_path, capsys, key, value):
    config = json.loads(HETEROGENEOUS.read_text())
    config["train"][key] = value
    path = tmp_path / "cfg.json"
    write_json(path, config)
    code, out, err = run(capsys, "toy", "run", str(path))
    assert code == 2 and out == ""
    assert err == f"error: train.{key}: unknown key\n"


_SWEEP = {
    "dataset": {"C": 3, "p": 4, "n_train": 40, "n_test": 30,
                "spreads": [0.5, 1.0, 2.0], "mean_separation": 3.0},
    "train": {"loss": ["ce", "normface", "igam"], "epochs": 2,
              "queue_len": 60, "batch_size": 16},
}


def _in_process_report(config_path, seed=None):
    spec, configs = parse_run_config(read_json(str(config_path)))
    if seed is not None:
        spec = replace(spec, seed=seed)
        configs = [replace(cfg, seed=seed) for cfg in configs]
    dataset = generate_dataset(spec)
    results = [train(dataset, cfg) for cfg in configs]
    return canonical_dumps(run_report_to_json(spec, results)).encode()


@pytest.mark.parametrize("seed", [0, 2])
def test_toy_run_report_matches_in_process_training(tmp_path, capsys, seed):
    # Each loss trains in its own worker process; the report must be the
    # bytes of training the configs one after another in this process.
    out_path = tmp_path / "report.json"
    code, _, err = run(capsys, "toy", "run", str(HETEROGENEOUS), "--seed", str(seed),
                       "--out", str(out_path))
    assert code == 0, err
    assert multiprocessing.active_children() == []
    assert out_path.read_bytes() == _in_process_report(HETEROGENEOUS, seed)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="forked workers inherit the dataset; other start methods pickle it")
def test_toy_run_never_pickles_the_dataset_under_fork(tmp_path, capsys, monkeypatch):
    def refuse(self, protocol):
        raise AssertionError("the dataset was pickled")

    monkeypatch.setattr(trainer_module.Dataset, "__reduce_ex__", refuse, raising=False)
    path = tmp_path / "cfg.json"
    write_json(path, _SWEEP)
    out_path = tmp_path / "report.json"
    code, _, err = run(capsys, "toy", "run", str(path), "--out", str(out_path))
    assert code == 0, err
    assert out_path.read_bytes() == _in_process_report(path)


def test_worker_task_trains_on_the_initializers_dataset(monkeypatch):
    # The pool's two halves in one process: the initializer, then the task.
    monkeypatch.setattr(cli_module, "_worker_data", None)
    spec, configs = parse_run_config(_SWEEP)
    ds = generate_dataset(spec)
    cli_module._init_worker(ds)
    for cfg in configs:
        got = cli_module._train_task(cfg)
        expected = train(ds, cfg)
        assert np.array_equal(got.weights, expected.weights)
        assert len(got.reports) == len(expected.reports)
        for a, b in zip(got.reports, expected.reports):
            for field in dataclasses.fields(a):
                x, y = getattr(a, field.name), getattr(b, field.name)
                assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        if cfg.loss == "igam":
            assert np.array_equal(got.final_margins.m, expected.final_margins.m)
        else:
            assert got.final_margins is None and expected.final_margins is None


def test_toy_run_leaves_no_reference_to_the_dataset(tmp_path, capsys, monkeypatch):
    made = []

    def generate(spec):
        dataset = generate_dataset(spec)
        made.append(weakref.ref(dataset))
        return dataset

    monkeypatch.setattr(cli_module, "generate_dataset", generate)
    path = tmp_path / "cfg.json"
    write_json(path, _SWEEP)
    code, _, err = run(capsys, "toy", "run", str(path))
    assert code == 0, err
    assert cli_module._worker_data is None
    gc.collect()
    (ref,) = made
    assert ref() is None
    for name, module in list(sys.modules.items()):
        held = [k for k, v in vars(module).items() if isinstance(v, trainer_module.Dataset)]
        assert not held, f"{name} holds {held}"


def test_toy_runs_in_one_interpreter_equal_fresh_runs(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    write_json(path, _SWEEP)
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    for seed in ("3", "4"):
        out_path = tmp_path / f"report{seed}.json"
        code, _, err = run(capsys, "toy", "run", str(path), "--seed", seed,
                           "--out", str(out_path))
        assert code == 0, err
        fresh = subprocess.run(
            [sys.executable, "-m", "infomargin.cli", "toy", "run", str(path), "--seed", seed],
            env=env, capture_output=True, check=True, timeout=120)
        assert out_path.read_bytes() == fresh.stdout


def test_toy_run_reports_first_configs_error(tmp_path, capsys):
    # All three losses diverge (ce with a non-finite loss, the cosine losses
    # with an overflowing weight norm); the error is the first config's, as
    # when the configs train one after another.
    config = {
        "dataset": {"C": 3, "p": 4, "n_train": 40, "n_test": 30,
                    "spreads": [0.5, 1.0, 2.0], "mean_separation": 3.0},
        "train": {"loss": ["ce", "normface", "igam"], "epochs": 2,
                  "queue_len": 60, "batch_size": 16, "lr": 1e300},
    }
    path = tmp_path / "cfg.json"
    write_json(path, config)
    code, out, err = run(capsys, "toy", "run", str(path))
    assert code == 3 and out == ""
    (line,) = [ln for ln in err.splitlines() if ln.startswith("numerical error:")]
    assert "loss=ce" in line
    assert multiprocessing.active_children() == []


# 16 rows a step: the weight norm overflows at the next step; 120 rows (the
# whole training set): it overflows at the epoch's test evaluation.
@pytest.mark.parametrize("batch_size", [16, 120])
@pytest.mark.parametrize("loss", ["normface", "igam"])
def test_toy_run_weight_norm_overflow_names_loss_and_epoch(tmp_path, capsys, loss, batch_size):
    config = {
        "dataset": {"C": 3, "p": 4, "n_train": 40, "n_test": 30,
                    "spreads": [0.5, 1.0, 2.0], "mean_separation": 3.0},
        "train": {"loss": loss, "epochs": 2, "queue_len": 60, "batch_size": batch_size,
                  "lr": 1e300},
    }
    path = tmp_path / "cfg.json"
    write_json(path, config)
    code, out, err = run(capsys, "toy", "run", str(path))
    assert code == 3 and out == ""
    assert err == ("numerical error: the norm of weight vector at index 0 overflows float64 "
                   f"in epoch 1 (loss={loss}, lr=1e+300)\n")


@pytest.mark.parametrize("subcommand, section", [("toy", "train"), ("margins", "info")])
def test_integer_beyond_float64_exits_two(tmp_path, capsys, subcommand, section):
    path = tmp_path / "doc.json"
    huge = "1" + "0" * 400
    if subcommand == "toy":
        path.write_text('{"dataset": {"C": 2, "p": 2, "n_train": 4, "n_test": 4, '
                        '"spreads": [1.0, 1.0], "mean_separation": 1.0}, '
                        '"train": {"loss": "ce", "epochs": 1, "lr": %s}}' % huge)
        argv = ("toy", "run", str(path))
    else:
        path.write_text('{"epoch": 0, "info": {"0": 0.5, "1": %s}}' % huge)
        argv = ("margins", str(path))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {section}.") and err.count("\n") == 1
    assert "expected a finite number" in err and huge not in err


def test_integer_beyond_the_digit_limit_exits_two(tmp_path, capsys):
    # int() refuses a literal of more than 4,300 digits with a ValueError
    # that is not a JSONDecodeError.
    path = tmp_path / "doc.json"
    huge = "1" + "0" * 5000
    path.write_text('{"epoch": 0, "info": {"0": 0.5, "1": %s}}' % huge)
    code, out, err = run(capsys, "margins", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: invalid JSON: ") and err.count("\n") == 1
    assert "4300 digits" in err and huge not in err


def test_toy_report_rejects_malformed(tmp_path, capsys):
    path = tmp_path / "r.json"
    write_json(path, {"runs": [{"train": {}}]})
    code, _, err = run(capsys, "toy", "report", str(path))
    assert code == 2
    assert "runs[0]" in err


_FINAL_EPOCH = {"per_class_accuracy": [0.5, 1.0], "bias_variance": 0.1, "pearson_info_acc": 0.2,
                "pearson_count_acc": 0.3, "loss_mean": 0.4}


@pytest.mark.parametrize("accuracy, message", [
    ([], "runs[1]: final per_class_accuracy must be a nonempty list, got shape (0,)"),
    (["a", 1], "runs[1]: final per_class_accuracy: expected a list of numbers"),
    ([True, 0.5], "runs[1]: final per_class_accuracy: expected a list of numbers"),
], ids=["empty", "string", "boolean"])
def test_toy_report_checks_final_accuracy(tmp_path, capsys, accuracy, message):
    good = {"train": {"loss": "ce"}, "epochs": [_FINAL_EPOCH]}
    bad = {"train": {"loss": "igam"}, "epochs": [dict(_FINAL_EPOCH, per_class_accuracy=accuracy)]}
    path = tmp_path / "r.json"
    write_json(path, {"runs": [good]})
    code, out, _ = run(capsys, "toy", "report", str(path))
    assert code == 0 and json.loads(out)["runs"][0]["min_class_accuracy"] == 0.5
    write_json(path, {"runs": [good, bad]})
    code, out, err = run(capsys, "toy", "report", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("field", ["per_class_accuracy", "bias_variance", "pearson_info_acc",
                                   "pearson_count_acc", "loss_mean", "dataset.C"])
def test_toy_report_rejects_numbers_beyond_float64(tmp_path, capsys, field):
    # `json.loads` reads 1e400 as inf, which the summary could not write.
    huge = ["HUGE", 0.5] if field == "per_class_accuracy" else "HUGE"
    final = dict(_FINAL_EPOCH, **{field: huge}) if field in _FINAL_EPOCH else _FINAL_EPOCH
    report = {"runs": [{"train": {"loss": "igam"}, "epochs": [final]}]}
    if field == "dataset.C":
        report["dataset"] = {"C": huge, "p": 2, "n_train": 4, "n_test": 4,
                             "spreads": [0.5, 1.0], "mean_separation": 1.0, "seed": 0}
    path = tmp_path / "r.json"
    path.write_text(json.dumps(report).replace('"HUGE"', "1e400"))
    code, out, err = run(capsys, "toy", "report", str(path))
    assert code == 2 and out == ""
    if field == "dataset.C":
        # The echo is read as a run config's dataset section is.
        expected = "dataset.C: expected an integer, got inf"
    elif field == "per_class_accuracy":
        expected = "runs[0]: final per_class_accuracy: expected finite numbers, got inf at index 0"
    else:
        expected = f"runs[0]: final {field}: expected a finite number, got inf"
    assert err == f"error: {expected}\n"


@pytest.mark.parametrize("train, message", [
    ('{"loss": 1e400}', "loss must be one of ('ce', 'normface', 'igam'), got inf"),
    ('{"loss": 5}', "loss must be one of ('ce', 'normface', 'igam'), got 5"),
    ('{"loss": [1, 2]}', "loss must be one of ('ce', 'normface', 'igam'), got [1, 2]"),
    ('{"loss": {"a": 1}}', "loss must be one of ('ce', 'normface', 'igam'), got {'a': 1}"),
    ('{"loss": "ce", "sigma": 0.1}', "sigma: unknown key"),
    ('{"loss": "ce", "epochs": 0}', "epochs must be >= 1, got 0"),
], ids=["inf", "number", "list", "object", "unknown-key", "bad-value"])
def test_toy_report_checks_train_echo(tmp_path, capsys, train, message):
    # Each run's train echo is read as a run config's train section is, so
    # a loss the summary could not write, or one no run trains, is refused.
    path = tmp_path / "r.json"
    path.write_text('{"runs": [{"train": %s, "epochs": [%s]}]}'
                    % (train, json.dumps(_FINAL_EPOCH)))
    code, out, err = run(capsys, "toy", "report", str(path))
    assert code == 2 and out == ""
    assert err == f"error: runs[0].train.{message}\n"


def test_toy_report_rejects_non_standard_json_constant(tmp_path, capsys):
    # Checked while parsing, so a NaN in a field the summary copies stops it too.
    path = tmp_path / "r.json"
    path.write_text('{"runs": [{"train": {"loss": "ce"}, "epochs": [{"per_class_accuracy": '
                    '[0.5], "bias_variance": NaN, "pearson_info_acc": 0, '
                    '"pearson_count_acc": 0, "loss_mean": 0}]}]}')
    code, out, err = run(capsys, "toy", "report", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path}: invalid JSON: NaN is not a JSON number\n"


# ---------------------------------------------------------------- plumbing


def test_invalid_json_input_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "info", str(path))
    assert code == 2
    assert "invalid JSON" in err


def test_text_that_is_not_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "info.json"
    path.write_bytes(b'{"epoch": 0, "info": {"0": 0.5, "1": "\xff"}}')
    code, out, err = run(capsys, "margins", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path}: not UTF-8 text: invalid start byte\n"


def test_json_is_read_as_utf8_whatever_the_locale(tmp_path):
    # Under the C locale with UTF-8 mode and locale coercion off, Python's
    # default text encoding is ASCII; the reader names UTF-8 itself.
    path = tmp_path / "info.json"
    path.write_bytes('{"epoch": 0, "info": {"0": 0.5, "1": 0.7}, "note": "é"}'.encode())
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONCOERCECLOCALE": "0"}
    proc = subprocess.run([sys.executable, "-m", "infomargin.cli", "margins", str(path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["C"] == 2


def test_missing_file_exits_two(tmp_path, capsys):
    code, _, err = run(capsys, "stats", str(tmp_path / "absent.bin"))
    assert code == 2
    assert err.startswith("error:")


def test_import_leaves_out_multiprocessing():
    # Only `toy run` starts a pool; every other subcommand would pay the
    # import of `concurrent.futures` at start-up.
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, infomargin.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == "[]\n"


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """An input for every subcommand, each made with `--out`: embeddings and
    weights, their statistics, amounts and margins, a run config and its report."""
    d = tmp_path_factory.mktemp("documents")
    write_sample_embeddings(d / "x.bin", n=40, p=3, C=3)
    write_embeddings_binary(d / "w.bin", np.random.default_rng(7).normal(size=(3, 3)),
                            np.arange(3))
    write_json(d / "config.json", {
        "dataset": {"C": 3, "p": 3, "n_train": 20, "n_test": 10,
                    "spreads": [0.5, 1.0, 2.0], "mean_separation": 3.0},
        "train": {"loss": ["ce", "igam"], "epochs": 2, "queue_len": 25, "batch_size": 16},
    })
    for argv in (["stats", d / "x.bin", "--queue-len", "7", "--out", d / "stats.json"],
                 ["info", d / "stats.json", "--out", d / "info.json"],
                 ["margins", d / "info.json", "--out", d / "margins.json"],
                 ["toy", "run", d / "config.json", "--out", d / "report.json"]):
        assert main([str(a) for a in argv]) == 0
    return d


_SUBCOMMAND_ARGV = {
    "stats": lambda d: ["stats", d / "x.bin", "--queue-len", "7"],
    "info": lambda d: ["info", d / "stats.json"],
    "margins": lambda d: ["margins", d / "info.json"],
    "loss-eval": lambda d: ["loss-eval", "--features", d / "x.bin", "--weights", d / "w.bin",
                            "--margins", d / "margins.json"],
    "plan": lambda d: ["plan", "--instances", "55800", "--dim", "128", "--classes", "20"],
    "toy run": lambda d: ["toy", "run", d / "config.json"],
    "toy report": lambda d: ["toy", "report", d / "report.json"],
}


@pytest.mark.parametrize("name", list(_SUBCOMMAND_ARGV))
def test_stdout_gets_the_bytes_of_out(documents, tmp_path, capsys, monkeypatch, name):
    # One writer: stdout streams the encoder's pieces as `--out` does, and
    # the whole text is never built.
    def refuse(obj):
        raise AssertionError("the document text was built whole")

    monkeypatch.setattr(fileio_module, "canonical_dumps", refuse)
    argv = [str(a) for a in _SUBCOMMAND_ARGV[name](documents)]
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    path = tmp_path / "out.json"
    assert main([*argv, "--out", str(path)]) == 0
    assert out and out.encode() == path.read_bytes()


def test_outputs_are_canonical_json(tmp_path, capsys):
    path = tmp_path / "e.bin"
    write_sample_embeddings(path)
    _, out, _ = run(capsys, "stats", str(path), "--queue-len", "3")
    assert out == canonical_dumps(json.loads(out))
