"""Measured child process: runs one workload's operations for a fixed time.

    python3 bench/worker.py --workload NAME --root DIR --seed N --seconds S --trace 0|1

The parent starts this in a fresh process after set-up has written the
inputs, so its peak RSS covers only the workload. Operations repeat while
the next one (at the median duration so far) still ends within
`--seconds`; the first always runs. With `--trace 1`
untraced and traced operations alternate, at least one of each; only the
traced ones feed the per-layer metrics. The result, one record per
operation plus the process's peak RSS, is written to
`<work>/child_result.json`; the final operation's outputs stay on disk
for the correctness gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import inputs

perf = time.perf_counter


class OperationFailed(Exception):
    pass


def _cli(argv: list[str]) -> None:
    # Looked up on every call, so the tracer's wrapper is used when installed.
    import infomargin.cli

    rc = infomargin.cli.main(argv)
    if rc != 0:
        raise OperationFailed(f"`infomargin {' '.join(argv[:1])}` exited with {rc}")


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


class StreamStats:
    """`stats` -> `info` -> `margins` on the embedding file, then `plan`."""

    def __init__(self, root: Path, work: Path, seed: int,
                 queue_len: int = inputs.STREAM_QUEUE_LEN):
        self.work = work
        self.queue_len = queue_len
        self.out = {name: str(work / f"{name}.json")
                    for name in ("stats", "info", "margins", "plan_grid", "plan_exact")}
        self.plan_args = ["--instances", str(inputs.PLAN_N), "--dim", str(inputs.PLAN_P),
                          "--classes", str(inputs.PLAN_C)]

    def run(self) -> dict:
        out = self.out
        t0 = perf()
        _cli(["stats", str(self.work / "stream.bin"),
              "--queue-len", str(self.queue_len), "--out", out["stats"]])
        _cli(["info", out["stats"], "--out", out["info"]])
        _cli(["margins", out["info"], *inputs.STREAM_MARGIN_ARGS, "--out", out["margins"]])
        t1 = perf()
        _cli(["plan", *self.plan_args, "--mode", "grid", "--out", out["plan_grid"]])
        _cli(["plan", *self.plan_args, "--mode", "exact", "--out", out["plan_exact"]])
        t2 = perf()
        digest = _digest(*(Path(path).read_bytes() for path in out.values()))
        return {"digest": digest, "measure_s": t1 - t0, "plan_s": t2 - t1}

    def save(self) -> None:
        pass


class ToyTrain:
    """`toy run` of the bundled heterogeneous config with the benchmark seed."""

    def __init__(self, root: Path, work: Path, seed: int, config: Path | None = None):
        config = config or root / inputs.TOY_CONFIG
        self.argv = ["toy", "run", str(config), "--seed", str(seed),
                     "--out", str(work / "report.json")]
        self.report = work / "report.json"

    def run(self) -> dict:
        _cli(self.argv)
        return {"digest": _digest(self.report.read_bytes())}

    def save(self) -> None:
        pass


class WideEpoch:
    """One epoch boundary (info -> normalize -> margins) and the epoch's
    igam batches, called through the library."""

    def __init__(self, root: Path, work: Path, seed: int):
        import infomargin.stats as stats

        self.work = work
        with np.load(work / "wide.npz") as fx:
            arrays = {k: fx[k] for k in fx.files}
        counts, means, covs = arrays["counts"], arrays["means"], arrays["covs"]
        self.stats = stats.GlobalStats(p=covs.shape[1], categories={
            c: stats.CategoryStats(total=int(counts[c]), mean=means[c], cov=covs[c])
            for c in range(counts.shape[0])
        })
        self.weights = arrays["weights"]
        self.features = arrays["features"]
        self.labels = arrays["labels"]
        self.last = None

    def run(self) -> dict:
        import infomargin.info as info
        import infomargin.loss as loss

        t0 = perf()
        table = info.information_amounts_from_stats(self.stats)
        norm = loss.normalize_info(table, variant="double-exp", ibar="mean")
        margins = loss.build_margins(norm, variant="clamped", direction="rival")
        t1 = perf()
        clf = loss.CosineClassifier(self.weights, scale=inputs.WIDE_SCALE)
        pool = self.labels.shape[0]
        pool_losses = np.empty(self.labels.shape)
        batch_s = []
        total = 0.0
        for b in range(inputs.WIDE_BATCHES):
            k = b % pool
            tb = perf()
            batch = loss.igam_batch(clf, self.features[k], self.labels[k], margins)
            batch_s.append(perf() - tb)
            total += float(batch.losses.sum()) + float(np.abs(batch.grad_weights).sum())
            if b < pool:
                pool_losses[k] = batch.losses
        t2 = perf()
        ids, amounts = table.as_arrays()
        self.last = {"ids": ids, "amounts": amounts, "margins": margins.m, "losses": pool_losses}
        digest = _digest(ids, amounts, margins.m, pool_losses, np.float64(total))
        return {"digest": digest, "refresh_s": t1 - t0, "loss_s": t2 - t1, "batch_s": batch_s}

    def save(self) -> None:
        np.savez(self.work / "wide_out.npz", **self.last)


WORKLOADS = {"stream-stats": StreamStats, "toy-train": ToyTrain, "wide-epoch": WideEpoch}


def peak_rss_mb() -> float:
    """Peak RSS of this process image in MB (2^20 bytes).

    VmHWM covers only the memory of this executable; getrusage's maxrss can
    carry over the parent's high-water mark from before the exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, root: Path, work: Path, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(root / "src"))
    import infomargin.cli  # noqa: F401  (importing is set-up, not part of an operation)

    wl = WORKLOADS[workload](root, work, seed)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    ops = []
    start = perf()
    while True:
        traced = tracer is not None and len(ops) % 2 == 1
        if traced:
            tracer.install()
            tracer.begin(len(ops))
        t = perf()
        op = {"traced": traced, "ok": True}
        try:
            op.update(wl.run())
        except Exception as exc:  # an operation's failure is a result, not a crash
            op.update(ok=False, error=f"{type(exc).__name__}: {exc}")
            traceback.print_exc()
        op["op_s"] = perf() - t
        if traced:
            tracer.uninstall()
            op["layers"] = tracer.end()
        ops.append(op)
        # Stop when the next operation would end past the window; a traced
        # run needs at least one untraced and one traced operation.
        typical = float(np.median([o["op_s"] for o in ops]))
        if perf() - start + typical > seconds and (tracer is None or len(ops) >= 2):
            break
    if any(op["ok"] for op in ops):
        wl.save()
    result = {"ops": ops, "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        result["absent"] = tracer.absent
        tracer.write(work / "spans.npz")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    work = inputs.work_dir(args.root, args.workload)
    result = run(args.workload, args.root, work, args.seed, args.seconds, bool(args.trace))
    (work / "child_result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
