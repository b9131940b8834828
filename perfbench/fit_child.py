"""One fit in a fresh interpreter: ingest -> fit -> save, then a check.

Run by the benchmark, never imported by it::

    python perfbench/fit_child.py --data D.jsonl --out M.json --heldout H.jsonl

prints one JSON object as its last line.  ``imported_at`` is a
``time.monotonic()`` reading (system-wide on Linux), so the parent can
subtract its own spawn time to get the import cost of the fit path.

Without ``--staged`` the fit is ``ProfitMiner.fit`` exactly as the CLI
``fit`` runs it.  With ``--staged`` the same pipeline is driven one layer
at a time through each layer's public functions, with a span around each
call and the program's own ``repro.obs`` counters collected; its model
must serve the same picks as ``--compare`` (the untraced artifact).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from repro import obs
from repro.core.covering import build_covering_tree
from repro.core.engine.compiled import CompiledModel
from repro.core.engine.kernel import resolve_backend
from repro.core.miner import ProfitMiner, ProfitMinerConfig
from repro.core.mining import MinerConfig, TransactionIndex, mine_rules
from repro.core.moa import MOAHierarchy
from repro.core.mpf import MPFRecommender
from repro.core.profit import SavingMOA
from repro.core.pruning import PruneConfig, cut_optimal_prune
from repro.data.hierarchy_gen import grouped_hierarchy
from repro.data.io import load_transactions
from repro.data.model_io import load_model, save_model

IMPORTED_AT = time.monotonic()

from common import Spans  # noqa: E402  (after the timed imports)


def picks(recommender, baskets) -> list[tuple[str, str]]:
    return [(r.item_id, r.promo_code) for r in recommender.recommend_many(baskets)]


def whole_fit(args, config: MinerConfig) -> tuple[MPFRecommender, float]:
    started = time.perf_counter()
    db = load_transactions(args.data)
    miner = ProfitMiner(
        grouped_hierarchy(db.catalog, levels=args.levels),
        config=ProfitMinerConfig(mining=config),
    ).fit(db)
    recommender = (
        miner.initial_recommender if args.initial else miner.require_fitted_recommender()
    )
    save_model(recommender, args.out)
    return recommender, time.perf_counter() - started


def staged_fit(args, config: MinerConfig, spans: Spans) -> tuple[MPFRecommender, dict]:
    """``ProfitMiner.fit`` + ``save_model``, one public call per span."""
    layers: dict[str, float] = {}

    def timed(name: str):
        return spans.span(name)

    with obs.tracing("staged-fit") as trace, timed("fit") as whole:
        with timed("data.io.load") as t:
            db = load_transactions(args.data)
        layers["data.io.load_s"] = t.seconds
        with timed("core.moa.build") as t:
            hierarchy = grouped_hierarchy(db.catalog, levels=args.levels)
            db.catalog.validate_for_mining()
            moa = MOAHierarchy(catalog=db.catalog, hierarchy=hierarchy, use_moa=True)
        layers["core.moa.build_s"] = t.seconds
        profit_model = SavingMOA()
        with timed("core.mining.index_build") as t:
            index = TransactionIndex(db=db, moa=moa, profit_model=profit_model)
        layers["core.mining.index_build_s"] = t.seconds
        # The mask matrix exists only where the fit's backend builds it.
        layers["core.engine.kernel.mask_matrix_s"] = 0.0
        if resolve_backend(config.backend, index.n) == "dense":
            with timed("core.engine.kernel.mask_matrix") as t:
                index.kernel()
            layers["core.engine.kernel.mask_matrix_s"] = t.seconds
        with timed("core.mining.mine") as t:
            result = mine_rules(db, moa, profit_model, config, index=index)
        layers["core.mining.mine_s"] = t.seconds
        with timed("core.covering.build") as t:
            tree = build_covering_tree(result)
        layers["core.covering.build_s"] = t.seconds
        with timed("core.pruning.prune") as t:
            report = cut_optimal_prune(tree, PruneConfig())
        layers["core.pruning.prune_s"] = t.seconds
        with timed("core.engine.compile") as t:
            if args.initial:
                recommender = MPFRecommender(
                    result.ranked_cache, moa, name="PROF+MOA (initial)",
                    presorted=True,
                )
                recommender.compiled  # noqa: B018  (force the lazy compile)
            else:
                compiled = CompiledModel.compile(
                    report.kept_rules, result.index.symbols, name="PROF+MOA",
                    body_ids_by_order=result.body_ids_by_order,
                )
                recommender = MPFRecommender(
                    compiled.ranked_rules, moa, name="PROF+MOA",
                    presorted=True, compiled=compiled,
                )
        layers["core.engine.compile_s"] = t.seconds
        with timed("data.model_io.save") as t:
            save_model(recommender, args.out)
        layers["data.model_io.save_s"] = t.seconds
    layers["fit.staged_wall_s"] = whole.seconds
    counters = trace.counters
    candidates = counters.get("mine.level2.candidates", 0)
    frequent = counters.get("mine.level2.frequent", 0)
    layers["core.engine.kernel.resident_bytes"] = trace.caches.get(
        "kernel.mask_matrix", {}
    ).get("resident_bytes", 0)
    layers["core.mining.level2_candidates"] = candidates
    layers["core.mining.level2_frequent"] = frequent
    layers["core.mining.level2_useful_ratio"] = frequent / candidates if candidates else 0.0
    layers["core.mining.rules_emitted"] = counters.get("mine.rules_emitted", 0)
    layers["core.covering.nodes"] = counters.get("cover.nodes", 0)
    layers["core.pruning.rules_kept"] = report.n_rules_after
    return recommender, layers


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--data", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--heldout", required=True)
    parser.add_argument("--min-support", type=float, required=True)
    parser.add_argument("--levels", type=int, default=2)
    parser.add_argument("--initial", action="store_true",
                        help="save the unpruned recommender instead")
    parser.add_argument("--staged", action="store_true")
    parser.add_argument("--compare", default=None,
                        help="artifact whose picks the staged model must match")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()
    config = MinerConfig(min_support=args.min_support, max_body_size=2)
    heldout = [t.nontarget_sales for t in load_transactions(args.heldout).transactions]
    out = {"imported_at": IMPORTED_AT}
    if args.staged:
        spans = Spans(enabled=True)
        recommender, out["layers"] = staged_fit(args, config, spans)
        reference = load_model(args.compare)
        if args.spans_out:
            spans.write(args.spans_out)
    else:
        recommender, out["fit_s"] = whole_fit(args, config)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # The check: the saved artifact serves what the fitted model does.
        reference = load_model(args.out)
    expected = picks(recommender, heldout)
    got = picks(reference, heldout)
    out["checked"] = len(expected)
    out["mismatches"] = sum(a != b for a, b in zip(expected, got)) + abs(
        len(expected) - len(got)
    )
    out["n_rules"] = recommender.model_size
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
