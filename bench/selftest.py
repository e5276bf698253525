"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks that BENCHMARK.json is well formed and names exactly the metrics the
harness computes, with a unit each, and that every correctness gate passes
the package's real outputs on small inputs but rejects a deliberately
corrupted copy: a perturbed covariance, a dropped category, a wrong margin
entry, a wrong information amount, a wrong plan, a wrong loss, and a
malformed or contradictory training report. Exits 1 if any check fails.
Takes a few seconds; writes only under `.bench_work/selftest/`.
"""

from __future__ import annotations

import json
import re
import shutil
import sys

import numpy as np

import run  # pins the BLAS thread count before numpy does any work
import gates
import inputs
import tracing
import worker

ROOT = run.ROOT
WORK = ROOT / ".bench_work" / "selftest"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
NAMED_THROUGHPUTS = {
    "stream-stats": {"measure_records_per_s"},
    "toy-train": {"train_samples_per_s"},
    "wide-epoch": {"refresh_categories_per_s", "loss_samples_per_s"},
}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        failures.append(what)


def check_metric_table() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, "BENCHMARK.json has exactly the contract's keys")
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics + spec["workloads"]]
    expect(len(names) == len(set(names)) and all(NAME.match(n) for n in names),
           "metric and workload names are unique and well formed")
    expect(all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics),
           "every metric has a unit and a direction")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    expect(all(0 < b <= 0.25 for b in bounds.values())
           and bounds.get("setup_s") == max(bounds.values()),
           "end-to-end bounds lie in (0, 0.25] and setup_s has the largest")

    layer = tracing.layer_metrics(np.empty((0, 5)), [], {})
    layer_names = set(layer) | {"trace.overhead_ratio"}
    expect(layer_names == {m["name"] for m in spec["per_layer"]},
           "per_layer lists exactly the traced run's metrics")
    for workload in NAMED_THROUGHPUTS:
        plain = {"ok": True, "traced": False, "op_s": 2.0, "measure_s": 1.5, "plan_s": 0.01,
                 "refresh_s": 1.0, "batch_s": [0.01] * 20}
        traced = {"ok": True, "traced": True, "op_s": 2.1, "layers": layer}
        record = {"workload": workload, "ops": [plain, traced], "setup_s": [1.0],
                  "peak_rss_mb": 100.0}
        e2e, layers, _, named = run.summarize(record)
        expect(set(e2e) == {m["name"] for m in spec["end_to_end"]}
               and set(layers) == layer_names and set(named) == NAMED_THROUGHPUTS[workload],
               f"{workload}: summary yields every end-to-end, per-layer and named metric")


def corrupted(path, mutate) -> None:
    """Apply `mutate` to the JSON document at `path` in place."""
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))


def gate_rejects(check, path, mutate, what: str) -> None:
    backup = path.read_bytes()
    if path.suffix == ".json":
        corrupted(path, mutate)
    else:
        with np.load(path) as fh:
            arrays = {k: fh[k] for k in fh.files}
        mutate(arrays)
        np.savez(path, **arrays)
    ok, details = check()
    expect(not ok and bool(details["errors"]), f"gate rejects {what}")
    path.write_bytes(backup)


def check_stream_gate() -> None:
    work = WORK / "stream"
    work.mkdir(parents=True)
    queue_len = 700
    inputs.write_stream(work / "stream.bin", seed=5, N=3000, p=8, C=5)
    worker.StreamStats(ROOT, work, 5, queue_len=queue_len).run()

    def check():
        return gates.check_stream(work, queue_len=queue_len)

    ok, details = check()
    expect(ok and details["recounted_records"] == queue_len - 3000 % queue_len,
           f"stream gate passes real outputs ({details})")

    def perturb_cov(doc):
        cov = doc["categories"][0]["cov_row_major"]
        cov[1] += 1e-6
        cov[8] += 1e-6

    def wrong_margin(doc):
        doc["margins_row_major"][1] += 1e-6

    def wrong_info(doc):
        doc["info"]["1"] *= 1.0 + 1e-6

    gate_rejects(check, work / "stats.json", perturb_cov, "a perturbed covariance")
    gate_rejects(check, work / "stats.json", lambda d: d["categories"].pop(2),
                 "a dropped category (statistics)")
    gate_rejects(check, work / "info.json", wrong_info, "a wrong information amount")
    gate_rejects(check, work / "info.json", lambda d: d["info"].pop("3"),
                 "a dropped category (information amounts)")
    gate_rejects(check, work / "margins.json", wrong_margin, "a wrong margin entry")
    gate_rejects(check, work / "plan_exact.json", lambda d: d.update(d_star=d["d_star"] + 1),
                 "a wrong exact plan")


def check_wide_gate() -> None:
    work = WORK / "wide"
    work.mkdir(parents=True)
    inputs.write_wide(work / "wide.npz", seed=5, C=6, p=8, pool=2, batch=16)
    op = worker.WideEpoch(ROOT, work, 5)
    op.run()
    op.save()

    def check():
        return gates.check_wide(work)

    ok, details = check()
    expect(ok, f"wide gate passes real outputs ({details})")

    def wrong_margin(a):
        a["margins"][2, 3] += 1e-6

    def drop_category(a):
        a["ids"], a["amounts"] = a["ids"][:-1], a["amounts"][:-1]

    def wrong_loss(a):
        a["losses"][1, 5] *= 1.0 + 1e-6

    def wrong_info(a):
        a["amounts"][0] *= 1.0 + 1e-6

    out = work / "wide_out.npz"
    gate_rejects(check, out, wrong_margin, "a wrong margin entry (wide)")
    gate_rejects(check, out, drop_category, "a dropped category (wide)")
    gate_rejects(check, out, wrong_info, "a wrong information amount (wide)")
    gate_rejects(check, out, wrong_loss, "a wrong igam loss")


def check_toy_gate() -> None:
    work = WORK / "toy"
    work.mkdir(parents=True)
    config = json.loads((ROOT / inputs.TOY_CONFIG).read_text())
    config["train"]["epochs"] = 3
    (work / "config.json").write_text(json.dumps(config))
    worker.ToyTrain(ROOT, work, 1, config=work / "config.json").run()

    def check():
        return gates.check_toy(work, 1, epochs=3)

    ok, details = check()
    expect(ok, f"toy gate passes a real 3-epoch report ({details})")

    def nan_accuracy(doc):
        doc["runs"][0]["epochs"][1]["per_class_accuracy"][2] = float("nan")

    def positive_pearson(doc):
        ce = next(r for r in doc["runs"] if r["train"]["loss"] == "ce")
        ce["epochs"][-1]["pearson_info_acc"] = 0.5

    report = work / "report.json"
    gate_rejects(check, report, nan_accuracy, "a non-finite accuracy")
    gate_rejects(check, report, lambda d: d["runs"].pop(), "a dropped training run")
    gate_rejects(check, report, positive_pearson, "a wrong CE Pearson(info, acc)")
    gate_rejects(check, report, lambda d: d["dataset"].update(seed=2), "a report for another seed")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    shutil.rmtree(WORK, ignore_errors=True)
    check_metric_table()
    check_stream_gate()
    check_wide_gate()
    check_toy_gate()
    shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(failures)} failure(s)" if failures else "all self-checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
