"""Benchmark of the infomargin package: three workloads, end to end and by layer.

    python3 bench/run.py --workload stream-stats --seed 1 --seconds 35 --trace 0
    python3 bench/run.py            # every workload, default seed and length

Run from any directory; the checkout is the parent of this file's
directory, and the package is imported from its `src/`. For each workload
the run:

1. sets up several times (generates the seeded inputs into
   `.bench_work/<workload>/` and times importing the package in a fresh
   interpreter) and reports the median as `setup_s`;
2. starts a fresh child (`worker.py`) that repeats the workload's operation
   for `--seconds`, with BLAS pinned to one thread;
3. checks the final outputs against the numpy references in `gates.py`
   and that every operation produced identical outputs;
4. prints a human-readable summary, then as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}. With `--trace 0` the
   metrics are the end-to-end metrics of BENCHMARK.json; with `--trace 1`
   the per-layer ones, from an outside-in traced run (`tracing.py`).

Timings are reported as the median over operations; the summary adds the
highest percentile with at least ten samples beyond it and the sample
count. Exit status is 0 when a result was printed, 2 when the checkout
holds no package to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after pinning the BLAS thread count)

import gates  # noqa: E402
import inputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
# Hard limit on the measured child, well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 150.0
_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def distribution(samples) -> dict:
    """Median, plus the highest percentile with >= 10 samples beyond it."""
    xs = np.asarray(samples, dtype=np.float64)
    out = {"n": int(xs.size), "median": float(np.median(xs))}
    for q in _PERCENTILES:
        if xs.size * (1.0 - q / 100.0) >= 10.0:
            out[f"p{q:g}"] = float(np.percentile(xs, q))
            break
    return out


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


_TIMED_IMPORT = ("import time; t = time.perf_counter(); import infomargin.cli; "
                 "print(time.perf_counter() - t)")


def setup(workload: str, work: Path, seed: int) -> list[float]:
    """Generate the inputs, then import the package in a fresh interpreter
    (timed there, so the wait for the process adds nothing); SETUP_REPEATS
    times."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs.write_inputs(workload, work, seed)
        generate_s = time.perf_counter() - t0
        proc = subprocess.run([sys.executable, "-c", _TIMED_IMPORT], env=child_env(),
                              check=True, timeout=60, capture_output=True, text=True)
        times.append(generate_s + float(proc.stdout))
    return times


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run the child, gate its outputs; returns the run record."""
    work = inputs.work_dir(ROOT, workload)
    work.mkdir(parents=True, exist_ok=True)
    result_path = work / "child_result.json"
    result_path.unlink(missing_ok=True)
    setup_times = setup(workload, work, seed)

    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")), "--workload", workload,
           "--root", str(ROOT), "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    record: dict = {"workload": workload, "setup_s": setup_times, "env": environment(seed)}
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        child_ok = proc.returncode == 0 and result_path.exists()
        record["child_error"] = None if child_ok else f"worker exited with {proc.returncode}"
    except subprocess.TimeoutExpired:
        child_ok = False
        record["child_error"] = f"worker exceeded {CHILD_TIMEOUT_S:g} s"
    if not child_ok:
        record.update(ops=[], attempted=1, failed=1, correct=False)
        return record
    child = json.loads(result_path.read_text())
    ops = child["ops"]
    record.update(peak_rss_mb=child["peak_rss_mb"], absent=child.get("absent", []), ops=ops)

    gate_ok, record["gate"] = gates.check(workload, work, seed)
    good = [op for op in ops if op["ok"]]
    reference = good[-1]["digest"] if good else None
    failed = sum(1 for op in ops if not op["ok"] or op["digest"] != reference or not gate_ok)
    record.update(attempted=len(ops), failed=failed, correct=gate_ok and failed == 0)
    return record


def _items_per_op(workload: str) -> int:
    if workload == "stream-stats":
        return inputs.STREAM_N
    if workload == "toy-train":
        return len(inputs.TOY_LOSSES) * inputs.TOY_EPOCHS * inputs.TOY_TRAIN_RECORDS
    return inputs.WIDE_BATCHES * inputs.WIDE_BATCH


def summarize(record: dict) -> tuple[dict, dict, dict, dict]:
    """(end-to-end values, per-layer values, timing distributions, the
    workload's own throughputs) of a run."""
    workload = record["workload"]
    ops = [op for op in record["ops"] if op["ok"]]
    plain = [op for op in ops if not op["traced"]]
    traced = [op for op in ops if op["traced"]]
    timings = {"op_s": distribution([op["op_s"] for op in plain])} if plain else {}
    named = {}
    if plain and workload == "stream-stats":
        timings["measure_s"] = distribution([op["measure_s"] for op in plain])
        timings["plan_s"] = distribution([op["plan_s"] for op in plain])
        named["measure_records_per_s"] = inputs.STREAM_N / timings["measure_s"]["median"]
        per_op = timings["measure_s"]["median"]
    elif plain and workload == "toy-train":
        named["train_samples_per_s"] = _items_per_op(workload) / timings["op_s"]["median"]
        per_op = timings["op_s"]["median"]
    elif plain:
        timings["refresh_s"] = distribution([op["refresh_s"] for op in plain])
        timings["loss_batch_s"] = distribution([t for op in plain for t in op["batch_s"]])
        named["refresh_categories_per_s"] = inputs.WIDE_C / timings["refresh_s"]["median"]
        named["loss_samples_per_s"] = inputs.WIDE_BATCH / timings["loss_batch_s"]["median"]
        per_op = timings["op_s"]["median"]
    e2e = {}
    if plain:
        e2e = {
            "records_per_s": _items_per_op(workload) / per_op,
            "setup_s": statistics.median(record["setup_s"]),
            "peak_rss_mb": record["peak_rss_mb"],
        }
    layers = {}
    if traced:
        names = traced[0]["layers"].keys()
        layers = {k: statistics.median(op["layers"][k] for op in traced) for k in names}
        if plain:
            layers["trace.overhead_ratio"] = (statistics.median(op["op_s"] for op in traced)
                                              / timings["op_s"]["median"])
    return e2e, layers, timings, named


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names,
                    help="one workload (default: every workload in turn)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "infomargin" / "__init__.py").is_file():
        print(f"error: no package to measure at {ROOT / 'src' / 'infomargin'}", file=sys.stderr)
        return 2

    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = [args.workload] if args.workload else names
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        record = measure(workload, args.seed, args.seconds, bool(args.trace))
        e2e, layers, timings, named = summarize(record) if record["ops"] else ({}, {}, {}, {})
        values = layers if args.trace else e2e
        record.update(end_to_end=e2e, per_layer=layers, timings=timings, named=named)
        results = ROOT / ".bench_work" / "results"
        results.mkdir(exist_ok=True)
        (results / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({k: v for k, v in record.items() if k != "ops"}, indent=1,
                       sort_keys=True))

        ratio = record["failed"] / record["attempted"]
        print(f"{workload}: {record['attempted']} ops, ops_failed_ratio {ratio:g}, "
              f"correct {record['correct']}"
              + (f" ({record['child_error']})" if record.get("child_error") else ""))
        for name, dist in timings.items():
            print(f"  {name:28s} {json.dumps(dist)}")
        for name, value in named.items():
            print(f"  {name:28s} {value:.6g} 1/s")
        for m in metric_specs:
            if m["name"] in values:
                print(f"  {m['name']:28s} {values[m['name']]:.6g} {m['unit']}")
        for key in ("gate", "absent"):
            if record.get(key):
                print(f"  {key} {json.dumps(record[key], sort_keys=True)}")

        total["correct"] &= record["correct"]
        total["attempted"] += record["attempted"]
        total["failed"] += record["failed"]
        if values.keys() >= {m["name"] for m in metric_specs}:
            prefix = "" if args.workload else f"{workload}/"
            total["metrics"].update({prefix + m["name"]: {"value": values[m["name"]],
                                                          "unit": m["unit"]}
                                     for m in metric_specs})
        else:
            total["correct"] = False
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
