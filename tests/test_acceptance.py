"""Acceptance criteria, one test per criterion.

Each test measures the stated quantity at the stated tolerance, appends a
single PASS/FAIL line (with the measured numbers) to the terminal summary,
and then asserts. Known issue: the sigma^2 = 0.25 leg of criterion 3 is
unattainable as stated -- at m = 100*p the spectrum-clip floor
(1 - sqrt(p/m))^2 = 0.81 sits far above the entire 0.25-variance sample
spectrum, so every eigenvalue is lifted to 0.81 and the estimate lands at
(p/2)*log2(1.81), +165.9% relative, deterministically, in 0/20 seeds. The
criterion is asserted as written and fails honestly; see the test output
line for the per-variance counts.
"""

import time
from dataclasses import replace
from importlib.resources import files

import numpy as np

from conftest import acceptance_lines

from infomargin.fileio import read_json
from infomargin.info import InfoAmountTable, information_amount_from_embeddings, \
    information_amounts_from_stats
from infomargin.loss import (
    CosineClassifier,
    MarginMatrix,
    build_margins,
    igam_batch,
    normalize_info,
)
from infomargin.planner import PlanInput, memory_report, optimal_queue_length
from infomargin.stats import GlobalStats, local_stats_from_arrays, merge_stats
from infomargin.trainer import generate_dataset, parse_run_config, train


def record(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    acceptance_lines.append(line)
    assert ok, line


def test_criterion_1_merge_exactness():
    # 200 randomized window partitions (N <= 5000, p <= 32, 1-7 windows):
    # merged per-category covariance vs direct pooled covariance.
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240801)
    worst = 0.0
    for _ in range(200):
        p = int(rng.integers(1, 33))
        n_windows = int(rng.integers(1, 8))
        N = int(rng.integers(n_windows, 5001))
        n_cats = int(rng.integers(1, 6))
        X = rng.normal(size=(N, p)) * rng.uniform(0.05, 20.0)
        cats = rng.integers(0, n_cats, size=N)
        if n_windows > 1:
            cuts = np.sort(rng.choice(np.arange(1, N), size=n_windows - 1, replace=False))
        else:
            cuts = np.array([], dtype=np.int64)
        bounds = [0, *cuts.tolist(), N]
        per_cat = {}
        for a, b in zip(bounds, bounds[1:]):
            if a == b:
                continue
            for c, ls in local_stats_from_arrays(X[a:b], cats[a:b]).items():
                per_cat.setdefault(c, []).append(ls)
        merged = GlobalStats(
            p=p, categories={c: merge_stats(w) for c, w in per_cat.items()}
        )
        for c, cs in merged.categories.items():
            rows = X[cats == c]
            mean = rows.mean(axis=0)
            cov = (rows - mean).T @ (rows - mean) / rows.shape[0]
            denom = max(np.linalg.norm(cov), 1e-30)
            worst = max(worst, np.linalg.norm(cs.cov - cov) / denom)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 30.0
    record(
        1, ok,
        f"200 randomized merges: worst relative Frobenius error {worst:.2e} "
        f"(< 1e-10), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_memory_plan_reproduction():
    t0 = time.perf_counter()
    plan1 = optimal_queue_length(PlanInput(N=55800, p=128, C=20))
    plan2 = optimal_queue_length(PlanInput(N=605638, p=128, C=80))
    rep1 = memory_report(PlanInput(N=55800, p=128, C=20), 11517)
    rep2 = memory_report(PlanInput(N=605638, p=128, C=80), 68182)
    mb = 2 ** 20
    checks = [
        plan1["d_star"] == 11517,
        abs(plan1["savings_percent"] - 56.44) < 0.1,
        plan2["d_star"] == 68182,
        abs(plan2["savings_percent"] - 73.52) < 0.1,
        abs(rep1["bytes_original"] / mb - 27.25) < 0.01,
        abs(rep1["bytes_new"] / mb - 11.87) < 0.01,
        abs(rep2["bytes_original"] / mb - 295.72) < 0.01,
        abs(rep2["bytes_new"] / mb - 78.29) < 0.01,
    ]
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 1.0
    record(
        2, ok,
        f"d*={plan1['d_star']}/{plan2['d_star']}, savings "
        f"{plan1['savings_percent']:.2f}%/{plan2['savings_percent']:.2f}% "
        f"(within 0.1pp of 56.44/73.52), MB "
        f"{rep1['bytes_original'] / mb:.4f}/{rep1['bytes_new'] / mb:.4f} and "
        f"{rep2['bytes_original'] / mb:.4f}/{rep2['bytes_new'] / mb:.4f} "
        f"(within 0.01), {elapsed * 1000:.0f}ms (< 1s)",
    )


def test_criterion_3_information_closed_forms():
    t0 = time.perf_counter()
    # Part A: identical embeddings across a (p, m) grid hit the clipped
    # closed form (p/2) * log2(1 + (1 - sqrt(p/m))^2) to 1e-9.
    worst_a = 0.0
    for p in (1, 2, 3, 4, 8, 16):
        for m in (1, 2, 3, 4, 5, 10, 50, 100, 1000):
            X = np.tile(np.linspace(-1.0, 1.0, p), (m, 1))
            lam = (1.0 - np.sqrt(p / m)) ** 2
            expected = 0.5 * p * np.log2(1.0 + lam)
            worst_a = max(worst_a, abs(information_amount_from_embeddings(X) - expected))
    ok_a = worst_a < 1e-9

    # Part B: isotropic Gaussian recovery within 5% relative in >= 19/20
    # seeds for sigma^2 in {0.25, 1, 4}, p in {4, 16}, m = 100*p.
    counts = {}
    for p in (4, 16):
        for s2 in (0.25, 1.0, 4.0):
            expected = 0.5 * p * np.log2(1.0 + s2)
            hits = 0
            for seed in range(20):
                rng = np.random.default_rng([991, p, int(100 * s2), seed])
                X = rng.normal(scale=np.sqrt(s2), size=(100 * p, p))
                got = information_amount_from_embeddings(X)
                if abs(got - expected) / expected < 0.05:
                    hits += 1
            counts[(p, s2)] = hits
    ok_b = all(v >= 19 for v in counts.values())
    elapsed = time.perf_counter() - t0
    count_str = ", ".join(
        f"p={p} s2={s2}: {v}/20" for (p, s2), v in sorted(counts.items())
    )
    ok = ok_a and ok_b and elapsed < 60.0
    record(
        3, ok,
        f"identical-grid worst abs dev {worst_a:.2e} (< 1e-9); Gaussian 5% "
        f"recovery [{count_str}] (need >= 19/20; sigma^2=0.25 fails "
        f"deterministically: clip floor 0.81 lifts the whole 0.25 spectrum, "
        f"+165.9% rel); {elapsed:.1f}s (< 60s)",
    )


def test_criterion_4_gradient_correctness():
    # 100 random configurations, central finite differences (h = 1e-6) on
    # every feature and weight entry; rtol 1e-4 with a 1e-7 absolute floor
    # for entries drowned in FD roundoff (|f''' h^2| and eps*|f|/h are both
    # ~1e-10 here, far below the floor).
    t0 = time.perf_counter()
    h = 1e-6
    worst_ratio = 0.0
    worst_abs = 0.0
    for seed in range(100):
        rng = np.random.default_rng([812, seed])
        C = int(rng.integers(2, 11))
        p = int(rng.integers(2, 17))
        s = float(rng.uniform(1.0, 8.0))
        M = rng.uniform(0.0, 0.5, size=(C, C))
        np.fill_diagonal(M, 0.0)
        label = int(rng.integers(0, C))
        while True:
            x = rng.normal(size=p)
            W = rng.normal(size=(C, p))
            cos = CosineClassifier(W, scale=s).cosines(x[None, :])[0]
            theta = np.arccos(cos)
            if np.all(np.abs(cos) < 0.95) and np.all(theta + M[label] < np.pi - 0.1):
                break
        margins = MarginMatrix(M)

        def loss():
            return igam_batch(CosineClassifier(W, scale=s), x[None, :], [label], margins).losses[0]

        out = igam_batch(CosineClassifier(W, scale=s), x[None, :], [label], margins)
        for arr, grad in ((x, out.grad_inputs[0]), (W, out.grad_weights)):
            flat = arr.reshape(-1)
            fd = np.empty_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss()
                flat[i] = orig - h
                dn = loss()
                flat[i] = orig
                fd[i] = (up - dn) / (2 * h)
            g = grad.reshape(-1)
            diff = np.abs(g - fd)
            allow = 1e-4 * np.maximum(np.abs(g), np.abs(fd)) + 1e-7
            worst_ratio = max(worst_ratio, float((diff / allow).max()))
            worst_abs = max(worst_abs, float(diff.max()))
    elapsed = time.perf_counter() - t0
    ok = worst_ratio < 1.0 and elapsed < 30.0
    record(
        4, ok,
        f"100 configs: all entries within rtol 1e-4 + atol 1e-7 of central "
        f"differences (worst allowance fraction {worst_ratio:.4f}, worst "
        f"|analytic - fd| {worst_abs:.1e}), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_5_degeneracy_suite():
    rng = np.random.default_rng(20240805)
    # Zero margin matrix: the margined loss equals the zero-margin loss on
    # 1000 random inputs within 1e-12.
    worst_eq = 0.0
    total = 0
    while total < 1000:
        C = int(rng.integers(2, 9))
        p = int(rng.integers(2, 13))
        n = min(50, 1000 - total)
        clf = CosineClassifier(rng.normal(size=(C, p)), scale=float(rng.uniform(1.0, 40.0)))
        X = rng.normal(size=(n, p))
        y = rng.integers(0, C, size=n)
        a = igam_batch(clf, X, y, MarginMatrix(np.zeros((C, C))))
        b = igam_batch(clf, X, y, None)
        worst_eq = max(worst_eq, float(np.abs(a.losses - b.losses).max()))
        total += n
    ok_eq = worst_eq < 1e-12

    # Equal information amounts: margins all exactly zero.
    ok_zero = True
    for C in (2, 3, 7, 11):
        level = float(rng.uniform(0.1, 5.0))
        norm = normalize_info(InfoAmountTable(np.arange(C), np.full(C, level)))
        ok_zero = ok_zero and bool(np.all(build_margins(norm).m == 0.0))

    # Feature- and weight-scale invariance within 1e-10.
    worst_scale = 0.0
    for _ in range(50):
        C = int(rng.integers(2, 7))
        p = int(rng.integers(2, 9))
        W = rng.normal(size=(C, p))
        x = rng.normal(size=p)
        M = rng.uniform(0.0, 0.4, size=(C, C))
        np.fill_diagonal(M, 0.0)
        M = MarginMatrix(M)
        label = int(rng.integers(0, C))
        x = x[None, :]
        base = igam_batch(CosineClassifier(W, scale=10.0), x, [label], M).losses[0]
        alpha = float(rng.uniform(1e-3, 1e3))
        row_scales = rng.uniform(1e-2, 1e2, size=(C, 1))
        scaled_x = igam_batch(CosineClassifier(W, scale=10.0), alpha * x, [label], M).losses[0]
        scaled_w = igam_batch(CosineClassifier(W * row_scales, scale=10.0), x, [label], M).losses[0]
        denom = max(abs(base), 1e-30)
        worst_scale = max(
            worst_scale, abs(scaled_x - base) / denom, abs(scaled_w - base) / denom
        )
    ok_scale = worst_scale < 1e-10
    ok = ok_eq and ok_zero and ok_scale
    record(
        5, ok,
        f"zero-margin equality worst |diff| {worst_eq:.1e} (< 1e-12 on 1000 "
        f"inputs); equal-info margins exactly zero: {ok_zero}; scale "
        f"invariance worst rel dev {worst_scale:.1e} (< 1e-10)",
    )


def test_criterion_6_bias_reduction():
    # Heterogeneous-spread benchmark (C=10, p=16, 500/class, sigma log-
    # spaced x8), 5 seeds: (a) CE's median Pearson(info, accuracy) <= -0.5;
    # (b) the information-guided margins beat the zero-margin baseline's
    # per-class accuracy variance in >= 4/5 seeds.
    t0 = time.perf_counter()
    base_spec, configs = parse_run_config(
        read_json(str(files("infomargin") / "examples" / "heterogeneous.json")))
    ce_pearson = []
    wins = 0
    deltas = []
    for seed in range(5):
        spec = replace(base_spec, seed=seed)
        dataset = generate_dataset(spec)
        by_loss = {}
        for cfg in configs:
            result = train(dataset, replace(cfg, seed=seed))
            by_loss[cfg.loss] = result.reports[-1]
        ce_pearson.append(by_loss["ce"].pearson_info_acc)
        delta = by_loss["igam"].bias_variance - by_loss["normface"].bias_variance
        deltas.append(delta)
        if delta < 0:
            wins += 1
    median_r = float(np.median(ce_pearson))
    elapsed = time.perf_counter() - t0
    ok = median_r <= -0.5 and wins >= 4 and elapsed < 300.0
    record(
        6, ok,
        f"CE median Pearson(info, acc) {median_r:.3f} (<= -0.5; per-seed "
        f"{[round(r, 2) for r in ce_pearson]}); margined loss beat the "
        f"zero-margin baseline's accuracy variance in {wins}/5 seeds "
        f"(deltas {[round(d, 4) for d in deltas]}); {elapsed:.0f}s (< 300s)",
    )


def test_criterion_7_queue_vs_pooled_equivalence():
    # The bundled equal-spread run (C=5, p=8, 200/class, d=150): the
    # information amounts each epoch reports, from one streaming merge of
    # epoch 1's rows, vs direct computation from all the pooled training
    # records at once.
    t0 = time.perf_counter()
    spec, (config,) = parse_run_config(
        read_json(str(files("infomargin") / "examples" / "equal-spread.json")))
    assert spec.C == 5 and spec.p == 8
    assert spec.n_train == (200,) * 5 and config.queue_len == 150
    dataset = generate_dataset(spec)
    pooled_table = information_amounts_from_stats(GlobalStats(
        p=spec.p, categories=local_stats_from_arrays(dataset.train_X, dataset.train_y)))
    assert np.array_equal(pooled_table.ids, np.arange(spec.C))
    pooled = pooled_table.amounts
    result = train(dataset, config)
    worst = 0.0
    for report in result.reports:
        rel = np.abs(report.info_amounts - pooled) / np.maximum(np.abs(pooled), 1e-30)
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 60.0
    record(
        7, ok,
        f"{len(result.reports)} epochs: worst relative gap between queue and "
        f"pooled amounts {worst:.2e} (< 1e-6), {elapsed:.1f}s (< 60s)",
    )
