"""Outside-in tracing of the package for the benchmark's traced runs.

The tracer replaces public names where the calling module looks them up
(for example `infomargin.trainer.igam_batch`) with wrappers that record a
span (name, start, end, parent span, run id) per call and update counters
from the call's arguments and result. Spans stay in memory as tuples and
are written out when the run ends. A layer's self time is its span minus
the spans directly below it.

Nothing in the package is edited. A name that a refactor removes is
listed in `absent` and its metrics read 0, so the benchmark keeps running.
Counter hooks run inside a `trace.hook` span, so their cost is excluded
from the self time of the span that encloses the call.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name). Each function is wrapped where the named
# module looks it up, so a call through any other path is not counted twice.
_FUNCTIONS = (
    ("infomargin.cli", "main", "cli.main"),
    ("infomargin.fileio", "read_embeddings", "fileio.read"),
    ("infomargin.fileio", "read_json", "fileio.read"),
    ("infomargin.fileio", "canonical_dumps", "fileio.json_write"),
    ("infomargin.stats", "compute_local_stats", "stats.snapshot"),
    ("infomargin.stats", "local_stats_from_arrays", "stats.snapshot"),
    ("infomargin.stats", "merge_stats", "stats.merge"),
    ("infomargin.cli", "information_amounts_from_stats", "info.refresh"),
    ("infomargin.trainer", "information_amounts_from_stats", "info.refresh"),
    ("infomargin.info", "information_amounts_from_stats", "info.refresh"),
    ("infomargin.cli", "normalize_info", "loss.normalize"),
    ("infomargin.trainer", "normalize_info", "loss.normalize"),
    ("infomargin.loss", "normalize_info", "loss.normalize"),
    ("infomargin.cli", "build_margins", "loss.build_margins"),
    ("infomargin.trainer", "build_margins", "loss.build_margins"),
    ("infomargin.loss", "build_margins", "loss.build_margins"),
    ("infomargin.cli", "igam_batch", "loss.igam_batch"),
    ("infomargin.trainer", "igam_batch", "loss.igam_batch"),
    ("infomargin.loss", "igam_batch", "loss.igam_batch"),
    ("infomargin.cli", "ce_batch", "loss.ce_batch"),
    ("infomargin.trainer", "ce_batch", "loss.ce_batch"),
    ("infomargin.loss", "ce_batch", "loss.ce_batch"),
    ("infomargin.cli", "optimal_queue_length", "planner.plan"),
    ("infomargin.cli", "memory_report", "planner.plan"),
    ("infomargin.cli", "generate_dataset", "trainer.generate_dataset"),
    ("infomargin.cli", "train", "trainer.train"),
    ("numpy.linalg", "eigh", "numpy.eig"),
    ("numpy.linalg", "eigvalsh", "numpy.eig"),
)
# (module, class, method, span name): methods patched on the class itself,
# which every module holding the class shares.
_METHODS = (
    ("infomargin.stats", "EpochAccumulator", "add", "stats.ingest"),
    ("infomargin.stats", "EpochAccumulator", "finalize", "stats.finalize"),
    ("infomargin.loss", "CosineClassifier", "predict", "loss.predict"),
)
# Spans whose nested calls to the same name are counted once, at the outermost.
_OUTERMOST = ("stats.snapshot", "info.refresh", "loss.igam_batch", "loss.ce_batch")

_MB = 2**20


def _rows(obj) -> int:
    shape = getattr(obj, "shape", None)
    if shape:
        return int(shape[0])
    try:
        return len(obj)
    except TypeError:
        return 1


class Tracer:
    """Span recorder and counters for one traced run of a workload."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._hook_id = self._name_id("trace.hook")
        self.finished: list[np.ndarray] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, hook=None):
        """Return `fn` recording one span per call; `hook(result, args, dur,
        parent)` updates counters after the span closes."""
        nid, hook_id = self._name_id(name), self._hook_id
        spans, stack, perf = self.spans, self._stack, time.perf_counter
        # An open span holds only its name id, so hooks of nested calls can
        # see which layer they run under.
        placeholder = (nid,)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(placeholder)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.run_id)
            if hook is not None:
                h0 = perf()
                hook(result, args, t1 - t0, parent)
                spans.append((hook_id, h0, perf(), parent, self.run_id))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ----- installation -------------------------------------------------

    def install(self) -> None:
        hooks = self._hooks()
        self.absent = []
        for modname, attr, name in _FUNCTIONS:
            module = importlib.import_module(modname)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            hook = hooks.get((modname, attr), hooks.get(name))
            self._restore.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name, hook))
        for modname, clsname, meth, name in _METHODS:
            cls = getattr(importlib.import_module(modname), clsname, None)
            fn = cls.__dict__.get(meth) if cls is not None else None
            if fn is None:
                self.absent.append(f"{modname}.{clsname}.{meth}")
                continue
            self._restore.append((cls, meth, fn))
            setattr(cls, meth, self.wrap(fn, name, hooks.get(name)))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore = []

    def _hooks(self) -> dict:
        c, names, spans = self.counters, self.names, self.spans

        def eig(result, args, dur, parent):
            c["info.eig_calls"] += 1

        def read(result, args, dur, parent):
            c["fileio.bytes_read"] += os.path.getsize(args[0])

        def dumps(result, args, dur, parent):
            c["fileio.json_bytes"] += len(result)

        def snapshot(result, args, dur, parent):
            if parent < 0 or names[spans[parent][0]] != "stats.snapshot":
                c["stats.windows"] += 1
                c["stats.window_rows"] += _rows(args[0])

        def ingest(result, args, dur, parent):
            c["stats.ingest_calls"] += 1
            c["stats.records_in"] += _rows(args[1])

        def finalize(result, args, dur, parent):
            cats = getattr(result, "categories", {})
            c["stats.records_counted"] += sum(cs.total for cs in cats.values())

        def refresh(result, args, dur, parent):
            c["info.categories"] += len(getattr(result, "amounts", ()))

        def margins(result, args, dur, parent):
            c["loss.margin_nonzero"] += int(np.count_nonzero(result.m))

        def igam(result, args, dur, parent):
            clf, labels, M = args[0], np.asarray(args[2]), args[3]
            M = np.asarray(getattr(M, "m", M))
            active = M[labels] != 0.0
            active[np.arange(labels.shape[0]), labels] = False
            c["loss.saturated"] += result.saturated
            c["loss.clamped_entries"] += int(
                np.count_nonzero(active & (result.logits == -clf.scale)))

        def sgd_step(result, args, dur, parent):
            c["trainer.sgd_steps"] += 1

        def trainer_igam(*hook_args):
            igam(*hook_args)
            sgd_step(*hook_args)

        def train(result, args, dur, parent):
            loss = result.config.loss
            c[f"trainer.train_s.{loss}"] += dur
            final = result.reports[-1]
            c[f"trainer.bias_variance.{loss}"] = final.bias_variance
            if final.pearson_info_acc is not None:
                c[f"trainer.pearson_info_acc.{loss}"] = final.pearson_info_acc

        return {
            "fileio.read": read,
            "fileio.json_write": dumps,
            "stats.snapshot": snapshot,
            "stats.ingest": ingest,
            "stats.finalize": finalize,
            "info.refresh": refresh,
            "loss.build_margins": margins,
            "loss.igam_batch": igam,
            ("infomargin.trainer", "igam_batch"): trainer_igam,
            ("infomargin.trainer", "ce_batch"): sgd_step,
            "trainer.train": train,
            "numpy.eig": eig,
        }

    # ----- per-operation accounting ------------------------------------

    def begin(self, run_id: int) -> None:
        self.run_id = run_id
        self.spans.clear()
        self.counters.clear()

    def end(self) -> dict[str, float]:
        """Close the operation: keep its spans and return its layer metrics."""
        arr = np.array(self.spans, dtype=np.float64).reshape(-1, 5)
        self.finished.append(arr)
        return layer_metrics(arr, self.names, dict(self.counters))

    def write(self, path) -> None:
        """Write every finished operation's spans (one row per span)."""
        spans = np.concatenate(self.finished) if self.finished else np.empty((0, 5))
        np.savez(path, names=np.array(self.names), name_id=spans[:, 0].astype(np.int32),
                 start=spans[:, 1], end=spans[:, 2], parent=spans[:, 3].astype(np.int64),
                 run_id=spans[:, 4].astype(np.int32))


def layer_metrics(spans: np.ndarray, names: list[str], counters: dict) -> dict[str, float]:
    """Per-layer metrics of one operation from its spans and counters."""
    nid = spans[:, 0].astype(np.int64)
    dur = spans[:, 2] - spans[:, 1]
    parent = spans[:, 3].astype(np.int64)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=len(dur))
    self_time = dur - child_time
    parent_name = np.full(len(dur), -1)
    parent_name[has_parent] = nid[parent[has_parent]]

    def ids(name):
        return names.index(name) if name in names else -2

    def total(name, of=dur):
        i = ids(name)
        mask = nid == i
        if name in _OUTERMOST:
            mask &= parent_name != i
        return float(of[mask].sum())

    read_s = total("fileio.read")
    refresh_s = total("info.refresh")
    categories = counters.get("info.categories", 0.0)
    records_in = counters.get("stats.records_in", 0.0)
    records_counted = counters.get("stats.records_counted", 0.0)
    return {
        "fileio.read_s": read_s,
        "fileio.read_mb_per_s": counters.get("fileio.bytes_read", 0.0) / _MB / read_s
        if read_s > 0 else 0.0,
        "fileio.json_write_s": total("fileio.json_write"),
        "fileio.json_bytes": counters.get("fileio.json_bytes", 0.0),
        "stats.ingest_s": total("stats.ingest"),
        "stats.ingest_calls": counters.get("stats.ingest_calls", 0.0),
        "stats.windows": counters.get("stats.windows", 0.0),
        "stats.window_rows": counters.get("stats.window_rows", 0.0),
        "stats.snapshot_s": total("stats.snapshot"),
        "stats.merge_s": total("stats.merge"),
        "stats.finalize_s": total("stats.finalize"),
        "stats.records_in": records_in,
        "stats.records_counted": records_counted,
        "stats.recounted_records": records_counted - records_in if records_counted else 0.0,
        "info.refresh_s": refresh_s,
        "info.ms_per_category": 1e3 * refresh_s / categories if categories else 0.0,
        "info.eig_calls": counters.get("info.eig_calls", 0.0),
        "loss.igam_batch_s": total("loss.igam_batch"),
        "loss.igam_batch_calls": float(np.count_nonzero(
            (nid == ids("loss.igam_batch")) & (parent_name != ids("loss.igam_batch")))),
        "loss.ce_batch_s": total("loss.ce_batch"),
        "loss.predict_s": total("loss.predict"),
        "loss.normalize_s": total("loss.normalize"),
        "loss.build_margins_s": total("loss.build_margins"),
        "loss.saturated": counters.get("loss.saturated", 0.0),
        "loss.clamped_entries": counters.get("loss.clamped_entries", 0.0),
        "loss.margin_nonzero": counters.get("loss.margin_nonzero", 0.0),
        "planner.plan_s": total("planner.plan"),
        "trainer.train_s.ce": counters.get("trainer.train_s.ce", 0.0),
        "trainer.train_s.normface": counters.get("trainer.train_s.normface", 0.0),
        "trainer.train_s.igam": counters.get("trainer.train_s.igam", 0.0),
        "trainer.self_s": total("trainer.train", self_time),
        "trainer.sgd_steps": counters.get("trainer.sgd_steps", 0.0),
        "trainer.bias_variance.igam": counters.get("trainer.bias_variance.igam", 0.0),
        "trainer.bias_variance.normface": counters.get("trainer.bias_variance.normface", 0.0),
        "trainer.pearson_info_acc.ce": counters.get("trainer.pearson_info_acc.ce", 0.0),
        "cli.self_s": total("cli.main", self_time),
    }
