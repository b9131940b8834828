#!/usr/bin/env python
"""Verify the numpy-free footprint: big-int mining + serving end to end.

The mining + serving core must stay functional with no third-party
packages at all — the dense kernel is an optional accelerator, never a
dependency (`docs/ALGORITHMS.md` §9).  This script *blocks* numpy and
scipy imports before touching ``repro`` (so it exercises the fallback
even on machines that have them installed), then:

* imports the package and checks the kernel reports numpy as absent,
* mines a small hand-built database on ``backend="auto"`` (which must
  fall back to big-int) and on an explicit ``backend="bigint"``,
  asserting identical non-empty rule sets,
* checks an explicit ``backend="dense"`` fails loudly,
* checks the out-of-core ``backend="ooc"`` fails just as loudly (its
  memmapped store is the dense kernel's representation on disk),
* serves recommendations for every training basket through the compiled
  inverted index,
* exercises the shape-split columnar rule store: indexed audit queries
  must match the naive scan, and a format-v3 save/load round trip must
  reproduce the ranked view — all on ``array``-module columns with no
  numpy in sight,
* serves ranked top-k portfolios (batched vs naive parity) and plans a
  small campaign where greedy and exact selection must agree — the
  portfolio layer is plain-dict arithmetic and must survive a
  numpy-free install too,
* drives the CLI entry point: ``query`` and ``plan`` run against the
  saved v3 artifact (exit code 0) and ``serve --model`` parses.

Run from the repository root::

    PYTHONPATH=src python scripts/check_numpy_free.py

Exits non-zero on any failure.  The CI perf-smoke workflow runs it on a
leg with no numpy installed; locally the import blocker makes that
environment reproducible anywhere.
"""

from __future__ import annotations

import sys


class _BlockNumpy:
    """Meta-path hook that makes numpy/scipy imports fail."""

    BLOCKED = ("numpy", "scipy")

    def find_spec(self, name, path=None, target=None):
        root = name.partition(".")[0]
        if root in self.BLOCKED:
            raise ImportError(f"{name} is blocked: simulating a numpy-free install")
        return None


def main() -> None:
    for module_name in list(sys.modules):
        if module_name.partition(".")[0] in _BlockNumpy.BLOCKED:
            raise SystemExit(
                f"{module_name} already imported; run this script directly, "
                "not from a process that loaded numpy"
            )
    sys.meta_path.insert(0, _BlockNumpy())

    from repro import (
        Item,
        ItemCatalog,
        MinerConfig,
        MOAHierarchy,
        MPFRecommender,
        PromotionCode,
        Sale,
        SavingMOA,
        Transaction,
        TransactionDB,
        ConceptHierarchy,
    )
    from repro.core.engine.kernel import HAVE_NUMPY, resolve_backend
    from repro.core.mining import mine_rules
    from repro.errors import MiningError

    assert not HAVE_NUMPY, "numpy import should have been blocked"
    assert resolve_backend("auto", 10**9) == "bigint"

    def promo(code: str, price: float, cost: float) -> PromotionCode:
        return PromotionCode(code=code, price=price, cost=cost)

    catalog = ItemCatalog.from_items(
        [
            Item("Perfume", (promo("P1", 10.0, 6.0),)),
            Item("Bread", (promo("P1", 2.0, 1.0), promo("P2", 2.4, 1.0))),
            Item(
                "Sunchip",
                (promo("L", 3.8, 2.0), promo("M", 4.5, 2.0), promo("H", 5.0, 2.0)),
                is_target=True,
            ),
        ]
    )
    hierarchy = ConceptHierarchy.for_catalog(catalog, {"Grocery": ["Bread"]})
    transactions = [
        Transaction(
            tid,
            (Sale("Perfume", "P1"),) if tid % 2 else (Sale("Bread", "P1"),),
            Sale("Sunchip", "H" if tid % 2 else "L"),
        )
        for tid in range(80)
    ]
    db = TransactionDB(catalog=catalog, transactions=transactions)
    moa = MOAHierarchy(catalog=catalog, hierarchy=hierarchy, use_moa=True)

    config = MinerConfig(min_support=0.05, max_body_size=2)
    auto = mine_rules(db, moa, SavingMOA(), config)
    bigint = mine_rules(
        db, moa, SavingMOA(), MinerConfig(min_support=0.05, max_body_size=2, backend="bigint")
    )
    assert auto.all_rules, "the fallback mine produced no rules"
    signature = lambda result: [  # noqa: E731 - tiny local comparator
        (s.rule.order, s.stats.n_hits, s.stats.rule_profit)
        for s in result.all_rules
    ]
    assert signature(auto) == signature(bigint), "auto != bigint without numpy"

    try:
        mine_rules(
            db,
            moa,
            SavingMOA(),
            MinerConfig(min_support=0.05, backend="dense"),
        )
    except MiningError as error:
        assert "numpy" in str(error)
    else:
        raise AssertionError("backend='dense' without numpy must raise")

    try:
        mine_rules(
            db,
            moa,
            SavingMOA(),
            MinerConfig(min_support=0.05, backend="ooc"),
        )
    except MiningError as error:
        assert "numpy" in str(error)
    else:
        raise AssertionError("backend='ooc' without numpy must raise")

    recommender = MPFRecommender(auto.all_rules, moa)
    served = sum(
        recommender.recommendation_rule(t.nontarget_sales) is not None
        for t in db
    )
    assert served == len(db), "serving must cover every training basket"

    # The columnar rule store is stdlib `array` columns end to end: it
    # must import, query, and round-trip through format v3 with numpy
    # still blocked.
    import tempfile
    from pathlib import Path

    from repro.core.rulestore import SHAPES, RuleStore
    from repro.data.model_io import load_model, save_model

    store = recommender.rule_store
    assert isinstance(store, RuleStore)
    assert sum(store.shape_counts().values()) == len(recommender.ranked_rules)
    queries = [{}, {"min_conf": 0.5}, {"top": 3}]
    queries += [{"shape": shape} for shape in SHAPES]
    for kwargs in queries:
        indexed = [h.rank for h in store.query(**kwargs)]
        naive = [h.rank for h in store.query(naive=True, **kwargs)]
        assert indexed == naive, f"query {kwargs} diverged without numpy"
    tmp_dir = tempfile.TemporaryDirectory()
    model_path = Path(tmp_dir.name) / "model.json"
    save_model(recommender, model_path)  # v3: persists the columnar store
    restored = load_model(model_path)
    assert list(restored.ranked_rules) == list(recommender.ranked_rules)

    # Top-k portfolios and the campaign planner are stdlib arithmetic on
    # top of serving; both must keep working with numpy blocked.
    from repro.campaign import plan_campaign

    baskets = [t.nontarget_sales for t in db]
    batched = recommender.recommend_top_k_many(baskets, 3)
    for basket, indexed in zip(baskets, batched):
        naive = recommender.recommend_top_k(basket, 3, naive=True)
        pairs = [(r.item_id, r.promo_code) for r in indexed]
        assert pairs == [(r.item_id, r.promo_code) for r in naive], (
            "top-k batched vs naive diverged without numpy"
        )
    greedy_plan = plan_campaign(recommender, baskets, method="greedy")
    exact_plan = plan_campaign(recommender, baskets, method="exact")
    assert greedy_plan.offers == exact_plan.offers, (
        "greedy and exact campaign plans diverged on the small world"
    )
    assert exact_plan.expected_profit > 0.0

    # The CLI entry point serves the same install: `query`, `plan` and
    # `serve` must import and run without the miner's or the generators'
    # numpy/scipy dependencies.
    import contextlib
    import io

    from repro.cli import build_parser
    from repro.cli import main as cli_main
    from repro.data.io import save_transactions

    data_path = Path(tmp_dir.name) / "baskets.jsonl"
    save_transactions(db, data_path)
    cli_runs = [
        ["query", "--model", str(model_path), "--top", "3"],
        ["plan", "--model", str(model_path), "--data", str(data_path)],
    ]
    for argv in cli_runs:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli_main(argv)
        assert code == 0, f"`{argv[0]}` exited {code} without numpy"
        assert out.getvalue().strip(), f"`{argv[0]}` printed nothing"
    serve_args = build_parser().parse_args(["serve", "--model", str(model_path)])
    assert serve_args.model == [str(model_path)]
    tmp_dir.cleanup()

    print(
        f"numpy-free fallback OK: {len(auto.all_rules)} rules mined on "
        f"big-int backend, {served}/{len(db)} baskets served, "
        f"{len(queries)} store queries + v3 round trip verified, "
        f"top-3 parity on {len(baskets)} baskets, campaign plan "
        f"${exact_plan.expected_profit:.2f} (greedy == exact), CLI "
        f"query + plan ran and serve parsed"
    )


if __name__ == "__main__":
    main()
