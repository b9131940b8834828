"""Command-line interface: generate data, fit recommenders, run experiments.

Usage (also available as the ``profit-mining`` console script)::

    python -m repro generate --dataset I --transactions 2000 --out data.jsonl
    python -m repro fit --data data.jsonl --min-support 0.01 --explain 3
    python -m repro sweep --dataset I --scale tiny
    python -m repro figure 3a --scale tiny
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Sequence

from repro import __version__
from repro.core.engine import BACKENDS
from repro.core.miner import ProfitMiner, ProfitMinerConfig
from repro.core.mining import MinerConfig
from repro.data.datasets import build_dataset, dataset_i_config, dataset_ii_config
from repro.data.hierarchy_gen import grouped_hierarchy
from repro.data.io import load_transactions, save_transactions
from repro.errors import ProfitMiningError
from repro.eval.experiments import (
    ExperimentScale,
    behavior_gain,
    gain_and_size_sweep,
    get_dataset,
    profit_distribution,
    profit_range_hit_rates,
    scale_from_env,
)
from repro.eval.reporting import format_histogram, format_series, format_table
from repro.obs import trace as obs

__all__ = ["main", "build_parser"]

_SCALES = {
    "tiny": ExperimentScale.tiny,
    "small": ExperimentScale.small,
    "medium": ExperimentScale.medium,
    "paper": ExperimentScale.paper,
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="profit-mining",
        description="Reproduction of 'Profit Mining: From Patterns to Actions' "
        "(Wang, Zhou & Han, EDBT 2002)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic dataset")
    gen.add_argument("--dataset", choices=("I", "II"), default="I")
    gen.add_argument("--transactions", type=int, default=2500)
    gen.add_argument("--items", type=int, default=300)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output JSON-lines path")
    gen.add_argument(
        "--stream",
        action="store_true",
        help="stream transactions to disk one at a time instead of "
        "materializing the dataset in RAM first (byte-identical output; "
        "use for multi-million-transaction files)",
    )

    fit = sub.add_parser("fit", help="fit the cut-optimal recommender on a file")
    fit.add_argument("--data", required=True, help="JSON-lines transactions")
    fit.add_argument("--min-support", type=float, default=0.01)
    fit.add_argument("--max-body-size", type=int, default=2)
    fit.add_argument("--no-moa", action="store_true", help="disable MOA")
    _add_backend_arguments(fit)
    fit.add_argument(
        "--explain",
        type=int,
        default=0,
        metavar="N",
        help="explain the recommendation for the first N transactions",
    )
    fit.add_argument(
        "--save-model",
        default=None,
        metavar="PATH",
        help="persist the fitted recommender as JSON",
    )
    _add_store_arguments(fit)
    _add_trace_argument(fit)

    refresh = sub.add_parser(
        "refresh",
        help="append new transactions to an out-of-core store and refit "
        "incrementally (SON refresh; identical to re-fitting from scratch)",
    )
    refresh.add_argument(
        "--store",
        required=True,
        metavar="DIR",
        help="store directory from a previous 'fit --backend ooc --store'",
    )
    refresh.add_argument(
        "--data", required=True, help="JSON-lines file of NEW transactions"
    )
    refresh.add_argument("--min-support", type=float, default=0.01)
    refresh.add_argument("--max-body-size", type=int, default=2)
    refresh.add_argument("--no-moa", action="store_true", help="disable MOA")
    refresh.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker threads for per-partition local mining "
        "(default: $REPRO_JOBS or 1; results are identical at any setting)",
    )
    refresh.add_argument(
        "--max-resident-mb",
        type=float,
        default=None,
        metavar="MB",
        help="resident-partition budget while counting (default 256)",
    )
    refresh.add_argument(
        "--save-model",
        default=None,
        metavar="PATH",
        help="persist the refreshed recommender as JSON",
    )
    _add_trace_argument(refresh)

    export = sub.add_parser(
        "export", help="export the rules of a fitted or saved model as CSV"
    )
    export.add_argument(
        "--data", default=None, help="JSON-lines transactions to fit on"
    )
    export.add_argument(
        "--model",
        default=None,
        metavar="PATH",
        help="export from a saved model (see 'fit --save-model') "
        "instead of fitting",
    )
    export.add_argument("--min-support", type=float, default=0.01)
    export.add_argument("--max-body-size", type=int, default=2)
    export.add_argument("--no-moa", action="store_true", help="disable MOA")
    _add_backend_arguments(export)
    export.add_argument("--out", required=True, help="output CSV path")
    export.add_argument(
        "--recommendations-out",
        default=None,
        metavar="PATH",
        help="also export per-transaction recommendations (batch-served) "
        "as CSV; with --model this still needs --data to serve",
    )
    _add_trace_argument(export)

    sweep = sub.add_parser("sweep", help="run the six-system support sweep")
    sweep.add_argument("--dataset", choices=("I", "II"), default="I")
    _add_scale_argument(sweep)
    _add_jobs_argument(sweep)
    _add_trace_argument(sweep)

    compare = sub.add_parser(
        "compare", help="cross-validate systems and test significance"
    )
    compare.add_argument("--dataset", choices=("I", "II"), default="I")
    compare.add_argument(
        "--systems",
        nargs="+",
        default=["PROF+MOA", "PROF-MOA", "CONF+MOA", "CONF-MOA", "kNN", "MPI"],
        help="systems to compare (first one is the reference)",
    )
    compare.add_argument(
        "--model",
        default=None,
        metavar="PATH",
        help="also score a saved model (see 'fit --save-model') on the "
        "same folds, as row 'saved:<name>'",
    )
    _add_scale_argument(compare)
    _add_jobs_argument(compare)
    _add_trace_argument(compare)

    report = sub.add_parser(
        "report", help="reproduce a full figure as a markdown report"
    )
    report.add_argument("--dataset", choices=("I", "II"), default="I")
    report.add_argument("--out", default=None, help="write markdown here")
    _add_scale_argument(report)
    _add_trace_argument(report)

    figure = sub.add_parser("figure", help="reproduce one figure panel")
    figure.add_argument(
        "panel",
        choices=[
            f"{fig}{panel}" for fig in ("3", "4") for panel in "abcdef"
        ],
        help="paper panel id, e.g. 3a",
    )
    _add_scale_argument(figure)
    _add_jobs_argument(figure)
    _add_trace_argument(figure)

    query = sub.add_parser(
        "query",
        help="audit the rules of a saved model through its columnar store",
    )
    query.add_argument(
        "--model",
        required=True,
        metavar="PATH",
        help="model artifact written by 'fit --save-model'",
    )
    query.add_argument(
        "--head-promo",
        metavar="CODE",
        help="only rules recommending this promotion code",
    )
    query.add_argument(
        "--head-item",
        metavar="ITEM",
        help="only rules recommending this item",
    )
    query.add_argument(
        "--head-under",
        metavar="CONCEPT",
        help="only rules whose recommended item falls under this concept",
    )
    query.add_argument(
        "--body-mentions",
        action="append",
        metavar="SPEC",
        help="only rules whose body mentions this symbol; 'item', "
        "'[Concept]' or 'item@promo' — repeat to AND several",
    )
    query.add_argument(
        "--shape",
        choices=["default", "concept", "item", "promo"],
        help="only rules of this body shape",
    )
    query.add_argument(
        "--min-conf",
        type=float,
        metavar="X",
        help="only rules with confidence >= X",
    )
    query.add_argument(
        "--min-support",
        type=float,
        metavar="X",
        help="only rules with support >= X",
    )
    query.add_argument(
        "--top",
        type=int,
        metavar="N",
        help="at most N hits, best MPF rank first",
    )
    query.add_argument(
        "--json",
        action="store_true",
        help="emit the hits as a JSON document instead of a table",
    )

    plan = sub.add_parser(
        "plan",
        help="select a store-wide promotion portfolio (campaign planning) "
        "from a saved model and a basket workload",
    )
    plan.add_argument(
        "--model",
        required=True,
        metavar="PATH",
        help="model artifact written by 'fit --save-model'",
    )
    plan.add_argument(
        "--data",
        required=True,
        help="JSON-lines transactions whose baskets form the workload",
    )
    plan.add_argument(
        "--max-offers",
        type=int,
        default=None,
        metavar="N",
        help="run at most N distinct promotions",
    )
    plan.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="X",
        help="campaign dollar budget; caps the portfolio at "
        "floor(budget / offer-cost) offers",
    )
    plan.add_argument(
        "--offer-cost",
        type=float,
        default=1.0,
        metavar="C",
        help="flat cost of running one promotion (default 1.0)",
    )
    plan.add_argument(
        "--inventory",
        action="append",
        metavar="ITEM=UNITS",
        help="cap the expected base units of ITEM the campaign may "
        "consume; repeat for several items",
    )
    plan.add_argument(
        "--method",
        choices=["auto", "greedy", "exact"],
        default="auto",
        help="portfolio search: exhaustive at small scale, greedy with a "
        "certified upper bound beyond (auto switches by subset count)",
    )
    plan.add_argument(
        "--json",
        action="store_true",
        help="emit the plan as a JSON document instead of a table",
    )
    _add_trace_argument(plan)

    serve = sub.add_parser(
        "serve",
        help="run the always-on recommendation daemon over saved models",
    )
    serve.add_argument(
        "--model",
        required=True,
        action="append",
        metavar="[NAME=]PATH",
        help="model artifact written by 'fit --save-model'; repeat to "
        "serve several models from one daemon (requests route by the "
        "JSON 'model' field; the first one is the default)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321)
    serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        metavar="N",
        help="largest micro-batch coalesced from concurrent /recommend "
        "requests (default 64)",
    )
    serve.add_argument(
        "--max-linger-ms",
        type=float,
        default=1.0,
        metavar="MS",
        help="longest a micro-batch stays open for company: a cap, used "
        "only while more requests keep arriving, so a lone request is "
        "answered at once (default 1.0)",
    )
    serve.add_argument(
        "--trace-sample-rate",
        type=float,
        default=0.0,
        metavar="RATE",
        help="fraction of serve calls traced into the /stats telemetry "
        "(0 disables, 1 traces everything)",
    )
    serve.add_argument(
        "--poll-interval",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="hot-swap automatically when the model file's mtime changes, "
        "checking this often (0 disables; POST /admin/reload always works)",
    )
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=1024,
        metavar="N",
        help="largest number of /recommend requests allowed to wait in a "
        "model's micro-batch queue before the daemon sheds load with "
        "503 + Retry-After (default 1024; 0 disables the cap)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="pre-fork N serving processes sharing the port (and the "
        "loaded model's memory); 1 runs the classic single-process "
        "daemon (default 1)",
    )
    serve.add_argument(
        "--listener",
        choices=["auto", "reuse_port", "inherit"],
        default="auto",
        help="how pool workers share the port: per-worker SO_REUSEPORT "
        "sockets with kernel balancing, or one fork-inherited listener "
        "(auto picks reuse_port where available; ignored with --workers 1)",
    )

    profile = sub.add_parser(
        "profile",
        help="run another command under tracing and print a trace summary",
    )
    _add_trace_argument(profile)
    profile.add_argument(
        "rest",
        nargs=argparse.REMAINDER,
        metavar="command ...",
        help="the command to profile, with its own arguments, e.g. "
        "'profile sweep --scale tiny'",
    )
    return parser


def _add_scale_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default=None,
        help="experiment scale (default: $REPRO_SCALE or small)",
    )


def _add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for cross-validation cells "
        "(default: $REPRO_JOBS or 1; results are identical at any setting)",
    )


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="run under tracing and write the trace (spans, counters, "
        "cache telemetry) to PATH as JSON",
    )


def _add_backend_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default="auto",
        help="support-counting backend: 'dense' (chunked uint64 kernel, "
        "needs the numpy extra), 'bigint' (no dependencies) or 'auto' "
        "(dense on large databases when numpy is available); the "
        "backends produce bit-identical results",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker threads for within-mine candidate batches on the "
        "dense backend (default: $REPRO_JOBS or 1; results are "
        "identical at any setting)",
    )


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="with --backend ooc: persist the partitioned transaction "
        "store here (reusable by 'refresh'); default is a temporary "
        "directory discarded after the fit",
    )
    parser.add_argument(
        "--partition-size",
        type=int,
        default=None,
        metavar="N",
        help="with --backend ooc: transactions per store partition "
        "(default 65536)",
    )
    parser.add_argument(
        "--max-resident-mb",
        type=float,
        default=None,
        metavar="MB",
        help="with --backend ooc: resident-partition budget; partitions "
        "above it are LRU-evicted back to disk (default 256)",
    )


def _resolve_scale(label: str | None) -> ExperimentScale:
    if label is None:
        return scale_from_env()
    return _SCALES[label]()


def _resolve_jobs(args: argparse.Namespace) -> int:
    from repro.eval.experiments import jobs_from_env

    if getattr(args, "jobs", None) is None:
        return jobs_from_env()
    if args.jobs < 1:
        raise ProfitMiningError(f"--jobs must be >= 1, got {args.jobs}")
    return args.jobs


def _cmd_generate(args: argparse.Namespace) -> int:
    config_fn = dataset_i_config if args.dataset == "I" else dataset_ii_config
    config = config_fn(
        n_transactions=args.transactions,
        n_items=args.items,
        seed=args.seed,
    )
    if args.stream:
        from repro.data.datasets import dataset_catalog, iter_dataset_transactions
        from repro.data.io import write_transactions_stream

        catalog = dataset_catalog(config)
        n = write_transactions_stream(
            args.out, catalog, iter_dataset_transactions(config, catalog)
        )
        print(
            f"streamed {n} transactions over {len(catalog)} items to {args.out}"
        )
        return 0
    dataset = build_dataset(config)
    save_transactions(dataset.db, args.out)
    print(
        f"wrote {len(dataset.db)} transactions over "
        f"{len(dataset.db.catalog)} items to {args.out}"
    )
    return 0


def _miner_for(args: argparse.Namespace, hierarchy) -> ProfitMiner:
    return ProfitMiner(
        hierarchy,
        config=ProfitMinerConfig(
            mining=MinerConfig(
                min_support=args.min_support,
                max_body_size=args.max_body_size,
                backend=getattr(args, "backend", "ooc"),
                n_jobs=args.jobs,
                partition_size=getattr(args, "partition_size", None),
                max_resident_mb=getattr(args, "max_resident_mb", None),
            ),
            use_moa=not args.no_moa,
        ),
    )


def _print_streamed_mix(miner: ProfitMiner, transactions) -> None:
    """Batch-serve ``transactions`` in bounded chunks; print the top mix."""
    mix: dict[tuple[str, str], int] = {}
    total = 0
    batch: list = []

    def flush() -> None:
        nonlocal total
        for rec in miner.recommend_many(batch):
            pair = (rec.item_id, rec.promo_code)
            mix[pair] = mix.get(pair, 0) + 1
        total += len(batch)
        batch.clear()

    for transaction in transactions:
        batch.append(transaction.nontarget_sales)
        if len(batch) >= 4096:
            flush()
    if batch:
        flush()
    top = ", ".join(
        f"{item}@{promo} x{count}"
        for (item, promo), count in sorted(mix.items(), key=lambda kv: -kv[1])[:3]
    )
    print(f"recommendation mix over {total} baskets: {top}")


def _cmd_fit(args: argparse.Namespace) -> int:
    from repro.data.io import iter_transactions, read_catalog

    if args.backend == "ooc":
        # True out-of-core path: the transaction file is streamed into the
        # partitioned store; only the catalog header is read up front.
        import tempfile

        from repro.core.engine.store import (
            DEFAULT_PARTITION_SIZE,
            ChunkedTransactionStore,
        )
        from repro.core.moa import MOAHierarchy

        catalog = read_catalog(args.data)
        catalog.validate_for_mining()
        hierarchy = grouped_hierarchy(catalog)
        miner = _miner_for(args, hierarchy)
        moa = MOAHierarchy(
            catalog=catalog, hierarchy=hierarchy, use_moa=not args.no_moa
        )
        with tempfile.TemporaryDirectory(prefix="repro-ooc-") as tmp:
            root = args.store or tmp
            store = ChunkedTransactionStore.build(
                root,
                iter_transactions(args.data),
                moa,
                miner.profit_model,
                partition_size=args.partition_size or DEFAULT_PARTITION_SIZE,
                max_resident_mb=args.max_resident_mb,
            )
            miner.fit_store(store)
            print(miner.summary())
            stats = store.stats()
            print(
                f"store: {stats['n_partitions']} partitions, "
                f"{stats['spilled_bytes']} bytes spilled"
                + (f", persisted at {args.store}" if args.store else " (temporary)")
            )
            _print_streamed_mix(miner, iter_transactions(args.data))
            for i, transaction in enumerate(iter_transactions(args.data)):
                if i >= args.explain:
                    break
                print()
                print(miner.explain(transaction.nontarget_sales))
    else:
        if args.store or args.partition_size or args.max_resident_mb:
            raise ProfitMiningError(
                "--store/--partition-size/--max-resident-mb need --backend ooc"
            )
        with obs.span("ingest"):
            db = load_transactions(args.data)
        hierarchy = grouped_hierarchy(db.catalog)
        miner = _miner_for(args, hierarchy).fit(db)
        print(miner.summary())
        _print_streamed_mix(miner, db.transactions)
        for transaction in db.transactions[: args.explain]:
            print()
            print(miner.explain(transaction.nontarget_sales))
    if args.save_model:
        from repro.data.model_io import save_model

        with obs.span("save"):
            save_model(miner.require_fitted_recommender(), args.save_model)
        print(f"model saved to {args.save_model}")
    return 0


def _cmd_refresh(args: argparse.Namespace) -> int:
    from repro.core.engine.store import ChunkedTransactionStore
    from repro.core.moa import MOAHierarchy
    from repro.data.io import iter_transactions, read_catalog

    catalog = read_catalog(args.data)
    hierarchy = grouped_hierarchy(catalog)
    miner = _miner_for(args, hierarchy)
    moa = MOAHierarchy(
        catalog=catalog, hierarchy=hierarchy, use_moa=not args.no_moa
    )
    store = ChunkedTransactionStore.open(
        args.store, moa, miner.profit_model, max_resident_mb=args.max_resident_mb
    )
    n_before = store.n
    miner.refit_refreshed(store, iter_transactions(args.data))
    print(miner.summary())
    print(
        f"store grew {n_before} -> {store.n} transactions "
        f"({store.n_partitions} partitions) at {args.store}"
    )
    if args.save_model:
        from repro.data.model_io import save_model

        save_model(miner.require_fitted_recommender(), args.save_model)
        print(f"model saved to {args.save_model}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.analysis import (
        export_recommendations_csv,
        export_rules_csv,
        pruning_summary,
    )

    if args.model is None and args.data is None:
        raise ProfitMiningError("export needs --data (fit) or --model (load)")
    if args.model is not None:
        from repro.data.model_io import load_model

        recommender = load_model(args.model)
        n_rules = export_rules_csv(recommender, args.out)
        print(
            f"wrote {n_rules} rules from saved model {recommender.name} "
            f"to {args.out}"
        )
        if args.recommendations_out:
            if args.data is None:
                raise ProfitMiningError(
                    "--recommendations-out needs --data to serve against"
                )
            db = load_transactions(args.data)
            n_recs = export_recommendations_csv(
                recommender, db, args.recommendations_out
            )
            print(
                f"wrote {n_recs} recommendations to {args.recommendations_out}"
            )
        return 0
    db = load_transactions(args.data)
    hierarchy = grouped_hierarchy(db.catalog)
    miner = ProfitMiner(
        hierarchy,
        config=ProfitMinerConfig(
            mining=MinerConfig(
                min_support=args.min_support,
                max_body_size=args.max_body_size,
                backend=args.backend,
                n_jobs=args.jobs,
            ),
            use_moa=not args.no_moa,
        ),
    ).fit(db)
    n_rules = export_rules_csv(miner, args.out)
    summary = pruning_summary(miner)
    print(
        f"wrote {n_rules} rules to {args.out} "
        f"(mined {summary['rules_mined']}, reduction factor "
        f"{summary['reduction_factor']:.1f}x)"
    )
    if args.recommendations_out:
        n_recs = export_recommendations_csv(miner, db, args.recommendations_out)
        print(f"wrote {n_recs} recommendations to {args.recommendations_out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    scale = _resolve_scale(args.scale)
    sweep = gain_and_size_sweep(args.dataset, scale, n_jobs=_resolve_jobs(args))
    for metric in ("gain", "hit_rate", "model_size"):
        print(
            format_series(
                sweep.series(metric),
                y_label=f"{metric} — dataset {args.dataset} ({scale.label} scale)",
            )
        )
        print()
    return 0


@dataclass(frozen=True)
class _SavedModelFactory:
    """Picklable factory serving one saved recommender on every fold.

    :meth:`~repro.core.mpf.MPFRecommender.fit` is a no-op, so handing the
    loaded model to :func:`~repro.eval.cross_validation.cross_validate`
    scores the *same* persisted rules against each held-back fold — an
    out-of-sample audit of a production artifact rather than a refit.
    Carrying the path (not the model) keeps the factory picklable for
    ``n_jobs > 1``.
    """

    path: str

    def __call__(self):
        from repro.data.model_io import load_model

        return load_model(self.path)


def _cmd_compare(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.eval.cross_validation import cross_validate, kfold_indices
    from repro.eval.harness import eval_config_for_system, paper_recommenders
    from repro.eval.metrics import EvalConfig
    from repro.eval.stats import compare_gains

    scale = _resolve_scale(args.scale)
    dataset = get_dataset(args.dataset, scale)
    splits = kfold_indices(len(dataset.db), k=scale.k_folds, seed=scale.seed)
    factories = paper_recommenders(
        dataset.hierarchy,
        scale.spot_support,
        max_body_size=scale.max_body_size,
        systems=tuple(args.systems),
    )
    n_jobs = _resolve_jobs(args)
    results = {
        system: cross_validate(
            factory,
            dataset.db,
            dataset.hierarchy,
            eval_config_for_system(None, system),
            splits=splits,
            n_jobs=n_jobs,
        )
        for system, factory in factories.items()
    }
    extra_rows: list[str] = []
    if args.model:
        from repro.data.model_io import load_model

        saved = load_model(args.model)
        label = f"saved:{saved.name}"
        results[label] = cross_validate(
            _SavedModelFactory(str(args.model)),
            dataset.db,
            dataset.hierarchy,
            # Judge the artifact by its own generalization relation, like
            # eval_config_for_system does for the named systems.
            replace(EvalConfig(), moa_hit_test=saved.moa.use_moa),
            splits=splits,
            n_jobs=n_jobs,
        )
        extra_rows.append(label)
    rows = [
        [system, cv.gain, cv.hit_rate, cv.model_size]
        for system, cv in results.items()
    ]
    print(
        format_table(
            ["system", "gain", "hit rate", "rules"],
            rows,
            title=f"dataset {args.dataset} at minsup {scale.spot_support} "
            f"({scale.label} scale, {scale.k_folds} folds)",
        )
    )
    print()
    reference = args.systems[0]
    for system in [*args.systems[1:], *extra_rows]:
        print(compare_gains(results[reference], results[system]).describe())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.eval.report import generate_markdown_report

    scale = _resolve_scale(args.scale)
    text = generate_markdown_report(args.dataset, scale)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    which = "I" if args.panel[0] == "3" else "II"
    panel = args.panel[1]
    scale = _resolve_scale(args.scale)
    title = f"Figure {args.panel} — dataset {which} ({scale.label} scale)"
    n_jobs = _resolve_jobs(args)
    if panel in "acf":
        metric = {"a": "gain", "c": "hit_rate", "f": "model_size"}[panel]
        sweep = gain_and_size_sweep(which, scale, n_jobs=n_jobs)
        print(format_series(sweep.series(metric), y_label=title))
    elif panel == "b":
        gains = behavior_gain(which, scale, n_jobs=n_jobs)
        rows = [
            [label, *(per.get(s) for s in sorted(per))]
            for label, per in gains.items()
        ]
        systems = sorted(next(iter(gains.values())))
        print(format_table(["behavior", *systems], rows, title=title))
    elif panel == "d":
        ranges = profit_range_hit_rates(which, scale, n_jobs=n_jobs)
        rows = [
            [system, *(rate for _, rate, _ in triples)]
            for system, triples in ranges.items()
        ]
        print(format_table(["system", "Low", "Medium", "High"], rows, title=title))
    else:  # panel == "e"
        print(format_histogram(profit_distribution(which, scale), title=title))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import json

    from repro.data.model_io import load_model

    recommender = load_model(args.model)
    hits = recommender.query_rules(
        head_promo=args.head_promo,
        head_item=args.head_item,
        head_under=args.head_under,
        body_mentions=args.body_mentions,
        shape=args.shape,
        min_conf=args.min_conf,
        min_support=args.min_support,
        top=args.top,
    )
    rows = [hit.to_dict() for hit in hits]
    if args.json:
        print(json.dumps({"model": recommender.name, "n": len(rows), "hits": rows}))
        return 0
    if not rows:
        print(f"{recommender.name}: no rules match the query")
        return 0
    print(
        format_table(
            ["rank", "shape", "body", "recommendation", "conf", "support"],
            [
                [
                    row["rank"],
                    row["shape"],
                    row["body"] or "(default)",
                    f"{row['item']} @ {row['promo']}",
                    f"{row['confidence']:.3f}",
                    f"{row['support']:.4f}",
                ]
                for row in rows
            ],
            title=f"{recommender.name}: {len(rows)} matching rules",
        )
    )
    return 0


def _parse_inventory_specs(specs: Sequence[str]) -> dict[str, float]:
    """CLI ``ITEM=UNITS`` inventory caps -> the planner's mapping."""
    inventory: dict[str, float] = {}
    for spec in specs:
        item, sep, units = spec.partition("=")
        if not sep or not item:
            raise ProfitMiningError(
                f"--inventory expects ITEM=UNITS, got {spec!r}"
            )
        try:
            inventory[item] = float(units)
        except ValueError:
            raise ProfitMiningError(
                f"--inventory units must be a number, got {spec!r}"
            ) from None
    return inventory


def _cmd_plan(args: argparse.Namespace) -> int:
    import json

    from repro.campaign import plan_campaign
    from repro.data.model_io import load_model

    recommender = load_model(args.model)
    db = load_transactions(args.data)
    plan = plan_campaign(
        recommender,
        db,
        max_offers=args.max_offers,
        budget=args.budget,
        offer_cost=args.offer_cost,
        inventory=_parse_inventory_specs(args.inventory or ()),
        method=args.method,
    )
    if args.json:
        print(json.dumps({"model": recommender.name, **plan.to_dict()}))
        return 0
    if not plan.offers:
        print(
            f"{recommender.name}: no feasible profitable offers over "
            f"{plan.n_baskets} baskets ({plan.n_candidates} candidates)"
        )
        return 0
    print(
        format_table(
            ["item", "promo", "E[profit]", "baskets", "E[units]"],
            [
                [
                    offer.item_id,
                    offer.promo_code,
                    f"{offer.expected_profit:.2f}",
                    offer.n_baskets,
                    f"{offer.expected_units:.1f}",
                ]
                for offer in plan.offers
            ],
            title=f"{recommender.name}: campaign plan ({plan.method}) over "
            f"{plan.n_baskets} baskets",
        )
    )
    print(
        f"total E[profit] ${plan.expected_profit:.2f} "
        f"(certified <= ${plan.profit_upper_bound:.2f}) from "
        f"{len(plan.offers)} of {plan.n_candidates} candidate offers"
    )
    return 0


def _parse_model_specs(specs: Sequence[str]) -> list[tuple[str | None, str]]:
    """CLI ``[NAME=]PATH`` model specs -> the daemon's (name, path) pairs.

    A spec without ``=`` leaves the name to the loaded artifact; the
    split is on the *first* ``=`` so Windows-style paths with drive
    colons and values containing ``=`` survive.
    """
    pairs: list[tuple[str | None, str]] = []
    for spec in specs:
        name, sep, path = spec.partition("=")
        if sep and name:
            pairs.append((name, path))
        else:
            pairs.append((None, spec))
    return pairs


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import RecommendDaemon, ServeConfig
    from repro.serve.daemon import trace_sample_period

    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_batch_size=args.max_batch,
        max_linger_ms=args.max_linger_ms,
        trace_sample_period=trace_sample_period(args.trace_sample_rate),
        poll_interval_s=args.poll_interval,
        max_queue_depth=args.max_queue_depth,
    )
    if args.workers > 1:
        from repro.serve.pool import PoolConfig, ServePool

        pool = ServePool(
            _parse_model_specs(args.model),
            config,
            PoolConfig(workers=args.workers, listener=args.listener),
        )
        pool.start()
        for name in pool.model_names:
            print(
                f"serving model {name!r} on http://{config.host}:{pool.port} "
                f"across {args.workers} workers ({pool.mode} balancing)",
                flush=True,
            )
        print(
            "endpoints: POST /recommend, POST /recommend_batch, POST /query, "
            "POST /plan, POST /admin/reload (pool-wide swap), GET /healthz, "
            "GET /stats (pool view), GET /stats/local",
            flush=True,
        )
        pool.run_forever()
        return 0
    daemon = RecommendDaemon(_parse_model_specs(args.model), config)

    async def _run_single() -> None:
        # Bind before announcing so the printed port is the real one
        # even with --port 0 (bind-anywhere).
        await daemon.start()
        for name in daemon.model_names:
            info = daemon._slots[name].handle.info()
            print(
                f"serving model {name!r} ({info['n_rules']} rules) "
                f"from {info['path']} on http://{config.host}:{daemon.port}",
                flush=True,
            )
        print(
            "endpoints: POST /recommend, POST /recommend_batch, POST /query, "
            "POST /plan, POST /admin/reload, GET /healthz, GET /stats",
            flush=True,
        )
        assert daemon._server is not None
        try:
            await daemon._server.serve_forever()
        finally:
            await daemon.stop()

    try:
        asyncio.run(_run_single())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        raise ProfitMiningError(
            "profile needs a command to run, e.g. 'profile sweep --scale tiny'"
        )
    if rest[0] == "profile":
        raise ProfitMiningError("profile cannot profile itself")
    inner = build_parser().parse_args(rest)
    with obs.tracing(" ".join(rest)) as trace:
        code = _HANDLERS[inner.command](inner)
    print()
    print(trace.summary())
    trace_out = args.trace_out or getattr(inner, "trace_out", None)
    if trace_out:
        trace.write(trace_out)
        print(f"trace written to {trace_out}")
    return code


_HANDLERS = {
    "generate": _cmd_generate,
    "fit": _cmd_fit,
    "refresh": _cmd_refresh,
    "export": _cmd_export,
    "compare": _cmd_compare,
    "report": _cmd_report,
    "sweep": _cmd_sweep,
    "figure": _cmd_figure,
    "query": _cmd_query,
    "plan": _cmd_plan,
    "serve": _cmd_serve,
    "profile": _cmd_profile,
}


def _dispatch(args: argparse.Namespace) -> int:
    """Run the selected handler, honouring ``--trace-out`` when present.

    ``profile`` manages its own tracing context (it prints the summary as
    well); for every other command a ``--trace-out`` simply wraps the run
    in :func:`repro.obs.trace.tracing` and writes the JSON at the end.
    """
    handler = _HANDLERS[args.command]
    trace_out = getattr(args, "trace_out", None)
    if args.command == "profile" or trace_out is None:
        return handler(args)
    with obs.tracing(args.command) as trace:
        code = handler(args)
    trace.write(trace_out)
    print(f"trace written to {trace_out}")
    return code


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ProfitMiningError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
