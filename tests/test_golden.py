"""Golden bytes: `stats -> info -> margins` on a fixed seeded `.bin`.

The SHA-256 of each output was recorded from the code before the sort-grouped
window statistics and the array path of `canonical_dumps`, so those rewrites,
and later ones, are pinned to the same bytes. The input file's own hash is
checked first: if numpy's generator stream ever changes, that assertion
fails instead of the output ones.
"""

import hashlib

import numpy as np

from infomargin.cli import main

N, P = 3000, 8
IDS = np.array([2, 5, 11, 40, 1203])
QUEUE_LEN = "700"  # 3000 mod 700 = 200: four full windows and a partial one

INPUT_SHA256 = "0a147336d7df7d8238f63e92f47c8f50bd8a3afd262e6fe0ee4cf103be1be36f"
OUTPUT_SHA256 = {
    "stats.json": "955d0ff5bfc99d23356cdf057673b0d96cb08272561669d64d0cf68a5b373be3",
    "info.json": "8f84333d1948753c8f3942b9a414d9218ed52a4c0619f446cb0573a1294b8e09",
    "margins.json": "0987b0cba259b213e620822672cd77d44fcc96720a73d3a72801c17c4cf46bf3",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_input(path) -> None:
    """N records in five sparse categories, interleaved, at per-category scales,
    written in the documented binary layout without the package's writer."""
    rng = np.random.default_rng(20250203)
    labels = IDS[rng.integers(0, IDS.size, size=N)]
    scale = dict(zip(IDS.tolist(), (0.25, 0.5, 1.0, 2.0, 4.0)))
    center = {c: rng.standard_normal(P) * 3.0 for c in IDS.tolist()}
    X = rng.standard_normal((N, P))
    for c in IDS.tolist():
        rows = labels == c
        X[rows] = X[rows] * scale[c] + center[c]
    records = np.empty(N, dtype=[("category", "<u4"), ("vector", "<f4", (P,))])
    records["category"] = labels
    records["vector"] = X
    with open(path, "wb") as fh:
        fh.write(b"IGAMEMB1" + np.uint32(P).tobytes() + np.uint64(N).tobytes())
        fh.write(records.tobytes())


def test_stats_info_margins_bytes_are_pinned(tmp_path):
    src = tmp_path / "golden.bin"
    _write_input(src)
    assert _sha256(src) == INPUT_SHA256, "the seeded input itself changed"
    out = {name: tmp_path / name for name in OUTPUT_SHA256}
    assert main(["stats", str(src), "--queue-len", QUEUE_LEN,
                 "--out", str(out["stats.json"])]) == 0
    assert main(["info", str(out["stats.json"]), "--out", str(out["info.json"])]) == 0
    assert main(["margins", str(out["info.json"]), "--direction", "rival", "--ibar", "mean",
                 "--out", str(out["margins.json"])]) == 0
    assert {name: _sha256(path) for name, path in out.items()} == OUTPUT_SHA256
