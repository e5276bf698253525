"""Command-line interface.

Subcommands:

    stats      stream an embedding file through the bounded queue and emit
               merged per-category statistics
    info       information amounts from a statistics JSON
    margins    normalized amounts -> margin matrix JSON
    loss-eval  evaluate ce / normface / igam over an embedding file
    plan       storage ratio and memory-optimal queue length
    toy run    train the synthetic benchmark from a run-config JSON
    toy report condense a run report to final-epoch summaries

All JSON output is canonical (sorted keys, shortest round-trip floats) and
lands on stdout unless --out is given. Exit codes: 0 success, 2 input
error, 3 numerical error.

`toy run` trains each configured loss in its own worker process. The
dataset is built once in this process and handed to each worker when the
pool starts: a forked worker inherits it copy-on-write, a spawned one
unpickles its own copy once. The report and the error reported are the
same as when the losses train one after another.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .errors import InputError, NumericalError, as_int
from . import fileio, trainer
from .info import info_table_from_json, info_table_to_json, information_amounts_from_stats
from .loss import (
    CosineClassifier,
    build_margins,
    ce_batch,
    igam_batch,
    margins_from_json,
    margins_to_json,
    normalize_info,
    MARGIN_DIRECTIONS,
    IBAR_MODES,
)
from .planner import MODES, PlanInput, memory_report, optimal_queue_length
from .stats import (
    EpochAccumulator,
    global_stats_from_json,
    global_stats_to_json,
    stats_entry_arrays,
)
from .trainer import LOSSES, generate_dataset, parse_run_config, run_report_to_json, \
    summarize_run_report


def _cmd_stats(args) -> int:
    # The file is read one window of records at a time, and each chunk is
    # dropped before the next is read (the accumulator keeps none once its
    # window closes), so one window is in memory. The capacity is checked first.
    as_int(args.queue_len, "queue capacity", minimum=1)
    p, chunks = fileio.iter_embeddings(args.input, chunk=args.queue_len)
    acc = EpochAccumulator(capacity=args.queue_len, p=p)
    for X, categories in chunks:
        acc.add(X, categories)
        del X, categories
    stats = acc.finalize()
    fileio.write_json(args.out, global_stats_to_json(stats))
    return 0


def _cmd_info(args) -> int:
    stats = global_stats_from_json(fileio.read_json(args.stats, object_hook=stats_entry_arrays))
    table = information_amounts_from_stats(stats)
    fileio.write_json(args.out, info_table_to_json(table))
    return 0


def _cmd_margins(args) -> int:
    table = info_table_from_json(fileio.read_json(args.info))
    margins = build_margins(normalize_info(table, ibar=args.ibar), direction=args.direction)
    fileio.write_json(args.out, margins_to_json(margins))
    return 0


def _cmd_loss_eval(args) -> int:
    # Cheapest check first: the margin file, then the weights and their C,
    # and only then the features, so a bad input fails before a large read.
    if args.margins is not None and args.loss != "igam":
        raise InputError("--margins applies only to --loss igam")
    margins = None
    if args.margins is not None:
        margins = margins_from_json(fileio.read_json(args.margins))
    Wraw, ids = fileio.read_embeddings(args.weights)
    C = Wraw.shape[0]
    if sorted(ids.tolist()) != list(range(C)):
        raise InputError(
            f"{args.weights}: weight records must carry class ids 0..{C - 1} exactly once"
        )
    if margins is not None and margins.C != C:
        raise InputError(f"{args.margins}: margin matrix is {margins.C}x{margins.C} "
                         f"but the weights define {C} classes")
    clf = CosineClassifier(Wraw[np.argsort(ids)], scale=args.s)
    X, labels = fileio.read_embeddings(args.features)
    # A logit gap beyond exp's range makes a loss inf, reported below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        if args.loss == "ce":
            out = ce_batch(clf, X, labels)
        else:
            out = igam_batch(clf, X, labels, margins)
    bad = ~np.isfinite(out.losses)
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericalError(f"non-finite loss {out.losses[i]} at sample {i} "
                             f"(loss={args.loss}, s={args.s})")
    fileio.write_json(args.out, {
        "loss": args.loss,
        "n": int(out.losses.shape[0]),
        "loss_mean": out.mean,
        "losses": out.losses.tolist(),
        "saturated": out.saturated,
        "clamped": out.clamped,
    })
    return 0


def _cmd_plan(args) -> int:
    if args.mode is not None and args.queue_len is not None:
        raise InputError("--mode applies only without --queue-len")
    inp = PlanInput(N=args.instances, p=args.dim, C=args.classes, mode=args.mode or "grid")
    if args.queue_len is not None:
        doc = memory_report(inp, args.queue_len)
    else:
        doc = optimal_queue_length(inp)
    fileio.write_json(args.out, doc)
    return 0


# The dataset a `toy run` worker trains on, set by `_init_worker` in each
# worker process when the pool starts; never set in the parent.
_worker_data = None


def _init_worker(dataset) -> None:
    global _worker_data
    _worker_data = dataset


def _train_task(config) -> trainer.TrainResult:
    return trainer.train(_worker_data, config)


def _cmd_toy_run(args) -> int:
    spec, configs = parse_run_config(fileio.read_json(args.config))
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
        configs = tuple(replace(cfg, seed=args.seed) for cfg in configs)
    dataset = generate_dataset(spec)
    # Imported here: the import costs every other subcommand about 19 ms.
    from multiprocessing import Pool

    # One worker per loss (at most len(LOSSES), as the names are distinct),
    # started the platform's default way: forked workers start at once, while
    # spawned ones re-import the package and measured no faster than one
    # process. The dataset goes to each worker once, as the initializer's
    # argument: a forked worker inherits it unpickled, and each task sends
    # only its TrainConfig. `imap` yields in config order, so the report and
    # first error are as if trained one by one; leaving the `with` block stops
    # the workers still running.
    with Pool(len(configs), initializer=_init_worker, initargs=(dataset,)) as pool:
        results = list(pool.imap(_train_task, configs))
    fileio.write_json(args.out, run_report_to_json(spec, results))
    return 0


def _cmd_toy_report(args) -> int:
    fileio.write_json(args.out, summarize_run_report(fileio.read_json(args.report), args.report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infomargin",
        description="Category information amounts, margin matrices, and queue planning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="merged per-category statistics from embeddings")
    p_stats.add_argument("input", help="embedding file")
    p_stats.add_argument("--queue-len", type=int, default=50000,
                         help="queue capacity d (default 50000)")
    p_stats.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p_stats.set_defaults(func=_cmd_stats)

    p_info = sub.add_parser("info", help="information amounts from statistics JSON")
    p_info.add_argument("stats", help="statistics JSON from `stats`")
    p_info.add_argument("--out", default=None)
    p_info.set_defaults(func=_cmd_info)

    p_margins = sub.add_parser(
        "margins", help="margin matrix from information amounts",
        description="Normalize the amounts by the double exponential, then take "
                    "m_ij = max(0, ln(I'_i / I'_j) / pi), the paper's one rule.")
    p_margins.add_argument("info", help="information-amount JSON from `info`")
    p_margins.add_argument("--direction", choices=MARGIN_DIRECTIONS, default="target",
                           help="which side's information advantage sets the margin")
    p_margins.add_argument("--ibar", choices=IBAR_MODES, default="sum",
                           help="reference level for normalization (default sum)")
    p_margins.add_argument("--out", default=None)
    p_margins.set_defaults(func=_cmd_margins)

    p_loss = sub.add_parser("loss-eval", help="evaluate a loss over an embedding file")
    p_loss.add_argument("--features", required=True,
                        help="embedding file; record categories are the true labels")
    p_loss.add_argument("--weights", required=True,
                        help="embedding file; one record per class id")
    p_loss.add_argument("--loss", choices=LOSSES, default="igam")
    p_loss.add_argument("--margins", default=None,
                        help="margin-matrix JSON (igam only; default: no margins)")
    p_loss.add_argument("--s", type=float, default=30.0, help="logit scale (default 30)")
    p_loss.add_argument("--out", default=None)
    p_loss.set_defaults(func=_cmd_loss_eval)

    p_plan = sub.add_parser("plan", help="storage ratio and optimal queue length")
    p_plan.add_argument("--instances", type=int, required=True, help="total instances N")
    p_plan.add_argument("--dim", type=int, required=True, help="embedding dimension p")
    p_plan.add_argument("--classes", type=int, required=True, help="category count C")
    p_plan.add_argument("--mode", choices=MODES, help="how to search for d (default grid)")
    p_plan.add_argument("--queue-len", type=int, default=None,
                        help="report a specific d instead of optimizing")
    p_plan.add_argument("--out", default=None)
    p_plan.set_defaults(func=_cmd_plan)

    p_toy = sub.add_parser("toy", help="synthetic training demos")
    toy_sub = p_toy.add_subparsers(dest="subcommand", required=True)

    p_run = toy_sub.add_parser(
        "run", help="train from a run-config JSON",
        description="Train one run per configured loss on a shared synthetic dataset. "
                    "The report echoes the dataset and train sections and gives each "
                    "epoch's per-class accuracy, information amounts and bias "
                    "diagnostics.")
    p_run.add_argument("config", help="run-config JSON path")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override both dataset and train seeds")
    p_run.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_run.set_defaults(func=_cmd_toy_run)

    p_report = toy_sub.add_parser("report", help="summarize a run report")
    p_report.add_argument("report", help="report JSON from `toy run`")
    p_report.add_argument("--out", default=None)
    p_report.set_defaults(func=_cmd_toy_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
