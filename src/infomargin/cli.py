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

`toy run` trains each configured loss in its own worker process; each
worker holds a copy of the dataset. The report and the error reported are
the same as when the losses train one after another.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import partial

import numpy as np

from .errors import InputError, NumericalError
from . import fileio, trainer
from .info import info_table_from_json, info_table_to_json, information_amounts_from_stats
from .loss import (
    CosineClassifier,
    MarginMatrix,
    build_margins,
    ce_batch,
    igam_batch,
    margins_from_json,
    margins_to_json,
    normalize_info,
    normface_batch,
    INFO_VARIANTS,
    MARGIN_VARIANTS,
    MARGIN_DIRECTIONS,
    IBAR_MODES,
)
from .planner import PlanInput, memory_report, optimal_queue_length, plan_result_to_json
from .runconfig import parse_run_config
from .stats import (
    EpochAccumulator,
    global_stats_from_json,
    global_stats_to_json,
    stats_entry_arrays,
)
from .trainer import LOSSES, generate_dataset, run_report_to_json

_MODES = {"grid": "coarse-grid", "exact": "exact-integer"}


def _emit(doc, out: str | None) -> None:
    if out:
        fileio.write_json(out, doc)
    else:
        sys.stdout.write(fileio.canonical_dumps(doc))


def _cmd_stats(args) -> int:
    # A binary file is read one window of records at a time, so only one
    # window is ever in memory; CSV and JSON come as one whole-file chunk.
    # Each chunk is dropped before the next is read (the accumulator keeps
    # none once its window closes), so two are never held at once.
    p, chunks = fileio.iter_embeddings(args.input, args.format, chunk=args.queue_len)
    acc = EpochAccumulator(capacity=args.queue_len, p=p)
    for X, categories in chunks:
        acc.add(X, categories)
        del X, categories
    stats = acc.finalize()
    _emit(global_stats_to_json(stats), args.out)
    return 0


def _cmd_info(args) -> int:
    stats = global_stats_from_json(fileio.read_json(args.stats, object_hook=stats_entry_arrays))
    table = information_amounts_from_stats(stats)
    _emit(info_table_to_json(table), args.out)
    return 0


def _cmd_margins(args) -> int:
    table = info_table_from_json(fileio.read_json(args.info))
    norm = normalize_info(table, variant=args.info_variant, ibar=args.ibar)
    margins = build_margins(norm, variant=args.margin_variant, direction=args.direction)
    _emit(margins_to_json(margins), args.out)
    return 0


def _cmd_loss_eval(args) -> int:
    X, labels = fileio.read_embeddings(args.features, args.format)
    Wraw, ids = fileio.read_embeddings(args.weights, args.format)
    C = Wraw.shape[0]
    if sorted(ids.tolist()) != list(range(C)):
        raise InputError(
            f"{args.weights}: weight records must carry class ids 0..{C - 1} exactly once"
        )
    W = Wraw[np.argsort(ids)]
    clf = CosineClassifier(W, scale=args.s)
    if args.margins is not None:
        margins = margins_from_json(fileio.read_json(args.margins))
        if margins.C != C:
            raise InputError(
                f"{args.margins}: margin matrix is {margins.C}x{margins.C} "
                f"but the weights define {C} classes"
            )
    else:
        margins = MarginMatrix.zeros(C)
    if args.loss == "ce":
        out = ce_batch(clf, X, labels)
    elif args.loss == "normface":
        out = normface_batch(clf, X, labels)
    else:
        out = igam_batch(clf, X, labels, margins)
    _emit(
        {
            "loss": args.loss,
            "n": int(out.losses.shape[0]),
            "loss_mean": out.mean,
            "losses": out.losses.tolist(),
            "saturated": out.saturated,
            "clamped": out.clamped,
        },
        args.out,
    )
    return 0


def _cmd_plan(args) -> int:
    inp = PlanInput(N=args.instances, p=args.dim, C=args.classes, search=_MODES[args.mode])
    if args.queue_len is not None:
        result = memory_report(inp, args.queue_len)
    else:
        result = optimal_queue_length(inp)
    _emit(plan_result_to_json(result), args.out)
    return 0


def _cmd_toy_run(args) -> int:
    parsed = parse_run_config(fileio.read_json(args.config))
    spec, configs = parsed.spec, parsed.configs
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
        configs = tuple(replace(cfg, seed=args.seed) for cfg in configs)
    dataset = generate_dataset(spec)
    # Imported here: the import costs every other subcommand about 19 ms.
    from multiprocessing import Pool

    # One worker per loss (at most len(LOSSES), as the names are distinct),
    # started the platform's default way: forked workers start at once, while
    # spawned ones re-import the package and measured no faster than one
    # process. `imap` yields in config order, so the report and first error are as
    # if trained one by one; leaving the `with` block stops the workers still running.
    # `trainer.train` goes to the workers by its import path, which a wrapper
    # rebound over a name in this module (by a tracer, say) would not have.
    with Pool(len(configs)) as pool:
        results = list(pool.imap(partial(trainer.train, spec, dataset=dataset), configs))
    _emit(run_report_to_json(spec, results), args.out)
    return 0


def _final_epoch_summary(run: dict, index: int) -> dict:
    try:
        loss = run["train"]["loss"]
        epochs = run["epochs"]
        final = epochs[-1]
        acc = final["per_class_accuracy"]
        return {
            "loss": loss,
            "epochs": len(epochs),
            "bias_variance": final["bias_variance"],
            "pearson_info_acc": final["pearson_info_acc"],
            "pearson_count_acc": final["pearson_count_acc"],
            "loss_mean": final["loss_mean"],
            "mean_accuracy": float(np.mean(acc)),
            "min_class_accuracy": float(np.min(acc)),
        }
    except (KeyError, IndexError, TypeError) as exc:
        raise InputError(f"runs[{index}]: malformed run report: {exc}") from exc


def _cmd_toy_report(args) -> int:
    doc = fileio.read_json(args.report)
    if not isinstance(doc, dict) or not isinstance(doc.get("runs"), list):
        raise InputError(f"{args.report}: expected a run report with a 'runs' list")
    summary = {
        "dataset": doc.get("dataset"),
        "runs": [_final_epoch_summary(run, i) for i, run in enumerate(doc["runs"])],
    }
    _emit(summary, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infomargin",
        description="Category information amounts, margin matrices, and queue planning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="merged per-category statistics from embeddings")
    p_stats.add_argument("input", help="embedding file (bin, csv, or json)")
    p_stats.add_argument("--queue-len", type=int, default=50000,
                         help="queue capacity d (default 50000)")
    p_stats.add_argument("--format", choices=fileio.FORMATS, default=None,
                         help="input format (default: by extension)")
    p_stats.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p_stats.set_defaults(func=_cmd_stats)

    p_info = sub.add_parser("info", help="information amounts from statistics JSON")
    p_info.add_argument("stats", help="statistics JSON from `stats`")
    p_info.add_argument("--out", default=None)
    p_info.set_defaults(func=_cmd_info)

    p_margins = sub.add_parser("margins", help="margin matrix from information amounts")
    p_margins.add_argument("info", help="information-amount JSON from `info`")
    p_margins.add_argument("--info-variant", choices=INFO_VARIANTS,
                           default="double-exp")
    p_margins.add_argument("--margin-variant", choices=MARGIN_VARIANTS, default="clamped")
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
                        help="margin-matrix JSON (igam only; default all-zero)")
    p_loss.add_argument("--s", type=float, default=30.0, help="logit scale (default 30)")
    p_loss.add_argument("--format", choices=fileio.FORMATS, default=None,
                        help="format of both embedding files (default: by extension)")
    p_loss.add_argument("--out", default=None)
    p_loss.set_defaults(func=_cmd_loss_eval)

    p_plan = sub.add_parser("plan", help="storage ratio and optimal queue length")
    p_plan.add_argument("--instances", type=int, required=True, help="total instances N")
    p_plan.add_argument("--dim", type=int, required=True, help="embedding dimension p")
    p_plan.add_argument("--classes", type=int, required=True, help="category count C")
    p_plan.add_argument("--mode", choices=sorted(_MODES), default="grid")
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
