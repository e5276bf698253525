"""Golden bytes: `stats -> info -> margins` on a fixed seeded `.bin`,
`loss-eval` on a second seeded pair of files, `plan`, and `toy run` with
`toy report` on the bundled heterogeneous config.

The SHA-256 of each `stats -> info -> margins` output was recorded from the
code before the sort-grouped window statistics and the array path of
`canonical_dumps`, so those rewrites, and later ones, are pinned to the same
bytes. The input file's own hash is checked first: if numpy's generator
stream ever changes, that assertion fails instead of the output ones.
The `info.json` hash was re-pinned once, when `info` stopped writing the
"epoch" key: the new bytes are the old ones less the `"epoch": 0,` line.
"""

import hashlib
from importlib.resources import files

import numpy as np

from infomargin.cli import main

N, P = 3000, 8
IDS = np.array([2, 5, 11, 40, 1203])
QUEUE_LEN = "700"  # 3000 mod 700 = 200: four full windows and a partial one

INPUT_SHA256 = "0a147336d7df7d8238f63e92f47c8f50bd8a3afd262e6fe0ee4cf103be1be36f"
OUTPUT_SHA256 = {
    "stats.json": "955d0ff5bfc99d23356cdf057673b0d96cb08272561669d64d0cf68a5b373be3",
    "info.json": "19efb878d5eee316f2314dabda94bdd97fa24e6ad8cb640c4406b3009ac2aa5f",
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


# `loss-eval` on a seeded features file and weights file; the margins come from
# `stats -> info -> margins` on the features. Recorded from the code that still
# had a separate NormFace entry point and an all-zero default margin matrix.
LOSS_N, LOSS_C = 600, 5
LOSS_INPUT_SHA256 = {
    "x.bin": "c5c10344b12c22069767e5ae17fa4d477ad52983232214ce70bbc93b46ef7ea9",
    "w.bin": "9ccaea1781ce9ee5c06fa17afd653f7a73da63a28beb80045c5d68b846d79d94",
}
LOSS_OUTPUT_SHA256 = {
    "ce": "4831cae6c0deb95880ad3d7db4ddbc00b10891a03a9d2b4b60ee16ca8eaecf84",
    "normface": "0780d6691eaf383fef1c464d0b58fcb28069d9ce32578dd21172961ce9861b1e",
    "igam": "bdf4807bf233e90500c3669dbaa4c346bbe4ad0adedf0f91e4af99025db641b2",
    "igam-margins": "0cdc22d8fdfbacc71d8b75b939d46bcd49397b9474397a481d5957ae1c1da116",
}


def _write_records(path, labels, X) -> None:
    records = np.empty(labels.size, dtype=[("category", "<u4"), ("vector", "<f4", (P,))])
    records["category"] = labels
    records["vector"] = X
    with open(path, "wb") as fh:
        fh.write(b"IGAMEMB1" + np.uint32(P).tobytes() + np.uint64(labels.size).tobytes())
        fh.write(records.tobytes())


def test_loss_eval_bytes_are_pinned(tmp_path):
    rng = np.random.default_rng(20261020)
    labels = rng.integers(0, LOSS_C, size=LOSS_N)
    centers = rng.standard_normal((LOSS_C, P)) * 2.0
    scale = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    X = centers[labels] + rng.standard_normal((LOSS_N, P)) * scale[labels, None]
    W = centers + rng.standard_normal((LOSS_C, P))
    src = {name: tmp_path / name for name in LOSS_INPUT_SHA256}
    _write_records(src["x.bin"], labels, X)
    _write_records(src["w.bin"], np.arange(LOSS_C), W)
    assert {name: _sha256(path) for name, path in src.items()} == LOSS_INPUT_SHA256, \
        "the seeded input itself changed"
    stats_json, info_json, margins_json = (tmp_path / n for n in ("s.json", "i.json", "m.json"))
    assert main(["stats", str(src["x.bin"]), "--out", str(stats_json)]) == 0
    assert main(["info", str(stats_json), "--out", str(info_json)]) == 0
    assert main(["margins", str(info_json), "--direction", "rival", "--ibar", "mean",
                 "--out", str(margins_json)]) == 0
    runs = {"ce": ["--loss", "ce"], "normface": ["--loss", "normface"],
            "igam": ["--loss", "igam"],
            "igam-margins": ["--loss", "igam", "--margins", str(margins_json)]}
    got = {}
    for name, flags in runs.items():
        out = tmp_path / f"{name}.json"
        assert main(["loss-eval", "--features", str(src["x.bin"]),
                     "--weights", str(src["w.bin"]), *flags, "--out", str(out)]) == 0
        got[name] = _sha256(out)
    assert got == LOSS_OUTPUT_SHA256


# `plan --out` at the README and benchmark size in both modes, at a fixed queue
# length, and in exact mode below the grid's N >= 1000. Recorded from the code
# that still had a separate result class and mode names, so the planner's
# one-formula form is pinned to the same bytes.
PLAN_OUTPUT_SHA256 = {
    "grid": "1a2ee131a20ba826980d39b3fba6fc0e7a9170a05e095d68c6cc4e07bd96fb20",
    "exact": "781d3fb002c1119cabfa990e48aaeb9a06324bf855702a04bbfadc47ec1fa9e7",
    "queue-len": "16121a7264724a6ab5d93930bb63ce21c2eb21cbd5b00b6089781bee0caea5c6",
    "exact-small": "e86d49689848dabf9275e1a5f8fbbc5ea78fb7b07616c16e0686b4b7fc9bab97",
}


def test_plan_bytes_are_pinned(tmp_path):
    readme = ["--instances", "55800", "--dim", "128", "--classes", "20"]
    runs = {
        "grid": [*readme, "--mode", "grid"],
        "exact": [*readme, "--mode", "exact"],
        "queue-len": ["--instances", "605638", "--dim", "128", "--classes", "80",
                      "--queue-len", "68182"],
        "exact-small": ["--instances", "999", "--dim", "8", "--classes", "4", "--mode", "exact"],
    }
    got = {}
    for name, flags in runs.items():
        out = tmp_path / f"{name}.json"
        assert main(["plan", *flags, "--out", str(out)]) == 0
        got[name] = _sha256(out)
    assert got == PLAN_OUTPUT_SHA256


# `toy run` of the bundled heterogeneous config at seed 0, and `toy report` on
# that report, with the information amounts computed once per run (so every
# epoch reports epoch 1's). A change that adds report keys re-pins both
# hashes and says so.
TOY_OUTPUT_SHA256 = {
    "report.json": "41401aef35fe45d563930c12a5075db2f951e0e13df526c3fcf6438d3e9884c5",
    "summary.json": "f15b204752176008f4c2b9d8e0f45a6edcca597fa48d66befeedfa1b71da7fc1",
}


def test_toy_run_and_report_bytes_are_pinned(tmp_path):
    config = files("infomargin") / "examples" / "heterogeneous.json"
    out = {name: tmp_path / name for name in TOY_OUTPUT_SHA256}
    assert main(["toy", "run", str(config), "--seed", "0",
                 "--out", str(out["report.json"])]) == 0
    assert main(["toy", "report", str(out["report.json"]),
                 "--out", str(out["summary.json"])]) == 0
    assert {name: _sha256(path) for name, path in out.items()} == TOY_OUTPUT_SHA256
