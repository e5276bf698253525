"""Correctness gates: each workload's outputs against an independent numpy
reference.

The references are written from the paper's formulas, not from the
package, and read inputs in their on-disk formats directly. Every gate
returns (ok, details); a failed check adds a message to details["errors"].
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import inputs

RTOL = 1e-9
ATOL = 1e-12


def _close(got, want, rtol=RTOL, atol=ATOL) -> bool:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return False
    return float(np.linalg.norm(got - want)) <= rtol * float(np.linalg.norm(want)) + atol


def info_amounts(p: int, counts, covs) -> np.ndarray:
    """I_i = 1/2 sum_k log2(1 + max(lambda_k, lambda_-)), lambda_- = (1 - sqrt(p/m))^2."""
    out = np.empty(len(counts))
    for i, (m, cov) in enumerate(zip(counts, covs)):
        lam = np.maximum(np.linalg.eigvalsh(0.5 * (cov + cov.T)), 0.0)
        floor = (1.0 - math.sqrt(p / m)) ** 2
        out[i] = 0.5 * np.sum(np.log2(1.0 + np.maximum(lam, floor)))
    return out


def rival_margins(amounts) -> np.ndarray:
    """Double-exp normalization with i_bar = mean, then clamped rival margins."""
    I = np.asarray(amounts, dtype=np.float64)
    C = I.size
    x = I / (I.mean() * math.sqrt(C))
    normalized = C * np.exp(np.exp(x)) / np.exp(x).sum() + 1.0
    logs = np.log(normalized)
    m = np.maximum((logs[None, :] - logs[:, None]) / math.pi, 0.0)
    np.fill_diagonal(m, 0.0)
    return m


def igam_losses(W, X, labels, M, s) -> np.ndarray:
    """Per-sample IGAM loss: target logit s cos(theta_y), rival logits
    s cos(theta_j + m_yj), or -s once theta_j + m_yj passes pi."""
    Wn = W / np.linalg.norm(W, axis=1, keepdims=True)
    out = np.empty(len(labels))
    for k, (x, y) in enumerate(zip(X, labels)):
        cos = np.clip(Wn @ (x / np.linalg.norm(x)), -1.0, 1.0)
        theta = np.arccos(cos)
        margin = M[y].copy()
        margin[y] = 0.0
        z = np.where(theta + margin > math.pi, -s, s * np.cos(theta + margin))
        z[margin == 0.0] = s * cos[margin == 0.0]
        rivals = np.delete(z - z[y], y)
        out[k] = math.log1p(float(np.exp(rivals).sum()))
    return out


def _pooled(X32: np.ndarray, rows: np.ndarray):
    Z = X32[rows].astype(np.float64)
    mean = Z.mean(axis=0)
    Z -= mean
    return rows.shape[0], mean, Z.T @ Z / rows.shape[0]


def _stream_reference(X32, labels, queue_len, categories):
    """Per-category (count, mean, cov) for two window semantics.

    "distinct": each streamed record once. "coverage": every full window
    of queue_len records plus a final window over the whole queue, so the
    last queue_len - N mod queue_len records are counted twice.
    """
    N = labels.shape[0]
    full = (N // queue_len) * queue_len
    covered = np.arange(full)
    if N % queue_len:
        covered = np.concatenate([covered, np.arange(max(0, N - queue_len), N)])
    ref = {"distinct": {}, "coverage": {}}
    for c in categories:
        ref["distinct"][c] = _pooled(X32, np.flatnonzero(labels == c))
        ref["coverage"][c] = _pooled(X32, covered[labels[covered] == c])
    return ref, covered.shape[0] - N


def _plan_reference(N, p, C, mode):
    def R(d):
        return (d + C * (np.floor(N / d) + 1) * p) / N

    if mode == "grid":
        grid = np.linspace(1000, N, 100)
        d = int(grid[int(np.argmin(R(grid)))])
    else:
        d_all = np.arange(1, N + 1, dtype=np.float64)
        d = int(np.argmin(R(d_all))) + 1
    K = N // d + 1
    return {"d_star": d, "R": float(R(d)), "bytes_original": N * p * 4,
            "bytes_new": (d * p + C * K * p * p) * 4}


def check_stream(work: Path, queue_len: int = inputs.STREAM_QUEUE_LEN) -> tuple[bool, dict]:
    errors: list[str] = []
    details: dict = {"errors": errors}
    X32, labels = inputs.read_stream(work / "stream.bin")
    p = X32.shape[1]
    stats = json.loads((work / "stats.json").read_text())
    entries = {int(e["id"]): e for e in stats.get("categories", [])}
    expected = sorted(int(c) for c in np.unique(labels))
    if stats.get("p") != p or sorted(entries) != expected:
        errors.append(f"stats: categories {sorted(entries)} / p={stats.get('p')}, "
                      f"expected {expected} / p={p}")
        return False, details
    ref, extra = _stream_reference(X32, labels, queue_len, expected)
    matched = None
    for semantics in ("distinct", "coverage"):
        if all(entries[c]["count"] == ref[semantics][c][0]
               and _close(entries[c]["mean"], ref[semantics][c][1])
               and _close(np.reshape(entries[c]["cov_row_major"], (p, p)), ref[semantics][c][2])
               for c in expected):
            matched = semantics
            break
    total = sum(e["count"] for e in entries.values())
    details["stats_semantics"] = matched
    details["recounted_records"] = total - labels.shape[0]
    if matched is None:
        errors.append("stats: merged count/mean/cov match neither the distinct records "
                      f"nor the window coverage (coverage recounts {extra})")

    counts = [entries[c]["count"] for c in expected]
    covs = [np.reshape(entries[c]["cov_row_major"], (p, p)) for c in expected]
    info = json.loads((work / "info.json").read_text()).get("info", {})
    if sorted(int(k) for k in info) != expected:
        errors.append(f"info: categories {sorted(info)} do not match the statistics")
        return False, details
    got_info = np.array([info[str(c)] for c in expected])
    want_info = info_amounts(p, counts, covs)
    if not _close(got_info, want_info):
        errors.append(f"info: amounts differ from the clipped-spectrum formula "
                      f"(max abs {np.max(np.abs(got_info - want_info)):.3g})")

    margins = json.loads((work / "margins.json").read_text())
    want_m = rival_margins(got_info)
    got_m = np.asarray(margins.get("margins_row_major", []), dtype=np.float64)
    if margins.get("C") != len(expected) or got_m.size != want_m.size \
            or not _close(got_m, want_m.reshape(-1)):
        errors.append("margins: matrix differs from the rival clamped formula")

    for mode in ("grid", "exact"):
        plan = json.loads((work / f"plan_{mode}.json").read_text())
        want = _plan_reference(inputs.PLAN_N, inputs.PLAN_P, inputs.PLAN_C, mode)
        details[f"plan_{mode}_d_star"] = plan.get("d_star")
        if any(plan.get(k) != v for k, v in want.items() if k != "R") \
                or not _close(plan.get("R", math.nan), want["R"]):
            errors.append(f"plan {mode}: {plan} differs from reference {want}")
    return not errors, details


def check_toy(work: Path, seed: int, epochs: int = inputs.TOY_EPOCHS) -> tuple[bool, dict]:
    errors: list[str] = []
    details: dict = {"errors": errors}
    try:
        doc = json.loads((work / "report.json").read_text())
        runs = {run["train"]["loss"]: run for run in doc["runs"]}
        if doc["dataset"]["seed"] != seed or len(doc["runs"]) != len(inputs.TOY_LOSSES) \
                or sorted(runs) != sorted(inputs.TOY_LOSSES):
            errors.append(f"report: dataset seed {doc['dataset']['seed']} / losses "
                          f"{sorted(runs)}, expected seed {seed} / {sorted(inputs.TOY_LOSSES)}")
        C = doc["dataset"]["C"]
        for loss, run in runs.items():
            if run["train"]["seed"] != seed or len(run["epochs"]) != epochs:
                errors.append(f"{loss}: seed {run['train']['seed']}, "
                              f"{len(run['epochs'])} epochs")
            for ep in run["epochs"]:
                acc = np.asarray(ep["per_class_accuracy"], dtype=np.float64)
                info = np.asarray(ep["info_amounts"], dtype=np.float64)
                if acc.shape != (C,) or info.shape != (C,) or not np.all(np.isfinite(acc)) \
                        or np.any((acc < 0) | (acc > 1)) or not np.all(np.isfinite(info)) \
                        or not math.isfinite(ep["loss_mean"]):
                    errors.append(f"{loss} epoch {ep['epoch']}: malformed or non-finite values")
                    break
                if not _close(ep["bias_variance"], np.var(acc)):
                    errors.append(f"{loss} epoch {ep['epoch']}: bias_variance != var(acc)")
                    break
                r = ep["pearson_info_acc"]
                if r is not None and np.std(info) > 0 and np.std(acc) > 0 \
                        and not _close(r, np.corrcoef(info, acc)[0, 1], rtol=1e-9, atol=1e-12):
                    errors.append(f"{loss} epoch {ep['epoch']}: pearson_info_acc mismatch")
                    break
        ce_final = runs["ce"]["epochs"][-1]["pearson_info_acc"]
        details["ce_final_pearson_info_acc"] = ce_final
        if ce_final is None or not ce_final < 0:
            errors.append(f"ce: final Pearson(info, acc) {ce_final} is not negative")
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        errors.append(f"report: {type(exc).__name__}: {exc}")
    return not errors, details


def check_wide(work: Path) -> tuple[bool, dict]:
    errors: list[str] = []
    details: dict = {"errors": errors}
    with np.load(work / "wide.npz") as fx, np.load(work / "wide_out.npz") as out:
        ids, got_info = out["ids"], out["amounts"]
        C, p = fx["covs"].shape[:2]
        pool, batch = fx["labels"].shape
        if not np.array_equal(ids, np.arange(C)) or got_info.shape != (C,):
            errors.append(f"info: categories {ids.tolist()} != 0..{C - 1}")
            return False, details
        want_info = info_amounts(p, fx["counts"], fx["covs"])
        floors = (1.0 - np.sqrt(p / fx["counts"])) ** 2
        details["clip_floor_range"] = [float(floors.min()), float(floors.max())]
        if not _close(got_info, want_info):
            errors.append("info: amounts differ from the clipped-spectrum formula")
        want_m = rival_margins(got_info)
        got_m = out["margins"]
        if not _close(got_m, want_m):
            errors.append("margins: matrix differs from the rival clamped formula")
        # A fixed sample of (batch, row) pairs, evaluated one sample at a time.
        rng = np.random.default_rng(7)
        pick = rng.choice(pool * batch, size=min(96, pool * batch), replace=False)
        b, r = np.divmod(pick, batch)
        want_loss = igam_losses(fx["weights"], fx["features"][b, r], fx["labels"][b, r],
                                want_m, inputs.WIDE_SCALE)
        if not _close(out["losses"][b, r], want_loss):
            errors.append("loss: sampled igam_batch losses differ from the formula")
        details["margin_nonzero"] = int(np.count_nonzero(got_m))
    return not errors, details


def check(workload: str, work: Path, seed: int) -> tuple[bool, dict]:
    if workload == "stream-stats":
        return check_stream(work)
    if workload == "toy-train":
        return check_toy(work, seed)
    return check_wide(work)
