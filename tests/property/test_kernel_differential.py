"""Differential properties: dense chunked-bitset backend vs big-int.

The dense kernel (:mod:`repro.core.engine.kernel`) is purely an
optimization — ``MinerConfig(backend="dense")`` must produce a
:class:`~repro.core.mining.MiningResult` identical to
``backend="bigint"`` down to every rule, stat float, tid-mask and the
default rule.  These properties drive both backends over random mining
problems and over the shapes where a chunked ``uint64`` representation
can diverge from arbitrary-width integers: databases whose size sits on
a 64-transaction chunk boundary (n ≡ 0/1 mod 64), single-transaction
databases, transactions with empty baskets, the LeakyMOA promo-leak
fixture, and ``filter_mining_result`` derivations computed from a
dense-backed mine.

Each backend mines through a *fresh* internal index: a shared
:class:`~repro.core.mining.TransactionIndex` would let the second
backend replay the first one's body/emit caches and mask real
divergence.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine.kernel import HAVE_NUMPY
from repro.core.mining import MinerConfig, filter_mining_result, mine_rules
from repro.core.moa import MOAHierarchy
from repro.core.profit import SavingMOA
from repro.core.sales import Sale, Transaction, TransactionDB
from repro.obs.trace import tracing

from tests.property.test_mining_properties import mining_problems
from tests.unit.test_mining import LeakyMOA

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="dense kernel needs numpy"
)


def _signature(result):
    """Everything a MiningResult asserts equality on, bit-for-bit."""
    return (
        [
            (
                scored.rule.order,
                tuple(sorted(g.describe() for g in scored.rule.body)),
                scored.rule.head.describe(),
                scored.stats.n_matched,
                scored.stats.n_hits,
                scored.stats.rule_profit,
            )
            for scored in result.all_rules
        ],
        None
        if result.default_rule is None
        else (
            result.default_rule.rule.head.describe(),
            result.default_rule.stats.rule_profit,
        ),
        result.body_tid_masks,
        result.body_ids_by_order,
        result.frequent_body_count,
        result.minsup_count,
    )


def _mine_both(db, moa, config):
    """One mine per backend, each through a fresh internal index."""
    dense = mine_rules(
        db, moa, SavingMOA(), replace(config, backend="dense")
    )
    bigint = mine_rules(
        db, moa, SavingMOA(), replace(config, backend="bigint")
    )
    return dense, bigint


class TestRandomProblems:
    @given(mining_problems())
    @settings(max_examples=40, deadline=None)
    def test_backends_identical_on_random_problems(self, problem):
        db, moa, config = problem
        dense, bigint = _mine_both(db, moa, config)
        assert _signature(dense) == _signature(bigint)

    @given(mining_problems())
    @settings(max_examples=25, deadline=None)
    def test_level_counters_identical(self, problem):
        # The dense level 2 never enumerates its candidates, yet must
        # report the same candidates/frequent/pruned tallies as the loop.
        db, moa, config = problem
        counters = {}
        for backend in ("dense", "bigint"):
            with tracing(backend) as trace:
                mine_rules(db, moa, SavingMOA(), replace(config, backend=backend))
            counters[backend] = {
                name: value
                for name, value in trace.counters.items()
                if name.startswith("mine.level")
            }
        assert counters["dense"] == counters["bigint"]
        n1 = counters["bigint"]["mine.level1.frequent"]
        if config.max_body_size >= 2 and n1 >= 2:
            assert {
                "mine.level2.candidates",
                "mine.level2.frequent",
                "mine.level2.pruned",
            } <= counters["dense"].keys()

    @given(mining_problems(), st.integers(2, 4))
    @settings(max_examples=15, deadline=None)
    def test_parallel_dense_identical(self, problem, n_jobs):
        db, moa, config = problem
        threaded = mine_rules(
            db,
            moa,
            SavingMOA(),
            replace(config, backend="dense", n_jobs=n_jobs),
        )
        sequential = mine_rules(
            db, moa, SavingMOA(), replace(config, backend="dense", n_jobs=1)
        )
        assert _signature(threaded) == _signature(sequential)

    @given(mining_problems())
    @settings(max_examples=15, deadline=None)
    def test_fpgrowth_backends_identical(self, problem):
        db, moa, config = problem
        dense, bigint = _mine_both(
            db, moa, replace(config, algorithm="fpgrowth")
        )
        assert _signature(dense) == _signature(bigint)


def _replicated_db(small_db, n: int) -> TransactionDB:
    """``small_db``'s transactions cycled out to exactly ``n``."""
    base = list(small_db)
    transactions = [
        Transaction(tid, base[tid % len(base)].nontarget_sales, base[tid % len(base)].target_sale)
        for tid in range(n)
    ]
    return TransactionDB(catalog=small_db.catalog, transactions=transactions)


class TestChunkBoundaries:
    """n ≡ 0/1 mod 64: the seams of the chunked uint64 representation."""

    @pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
    def test_boundary_sizes_identical(self, small_db, small_moa, n):
        db = _replicated_db(small_db, n)
        config = MinerConfig(min_support=0.05, max_body_size=2)
        dense, bigint = _mine_both(db, small_moa, config)
        assert _signature(dense) == _signature(bigint)

    def test_single_transaction_db(self, small_db, small_moa):
        db = _replicated_db(small_db, 1)
        config = MinerConfig(min_support=0.5, max_body_size=2)
        dense, bigint = _mine_both(db, small_moa, config)
        assert _signature(dense) == _signature(bigint)

    def test_effectively_empty_baskets(self, small_catalog, small_moa):
        # A lone Perfume transaction among 64 Bread ones: none of its
        # extensions (item, category or promo-form) reaches the support
        # floor, so its kernel row carries a zero bit for *every* frequent
        # body — the dense analogue of an empty basket.
        transactions = [
            Transaction(tid, (Sale("Bread", "P1"),), Sale("Sunchip", "H"))
            for tid in range(64)
        ]
        transactions.append(
            Transaction(64, (Sale("Perfume", "P1"),), Sale("Sunchip", "L"))
        )
        db = TransactionDB(catalog=small_catalog, transactions=transactions)
        config = MinerConfig(min_support=0.5, max_body_size=2)
        dense, bigint = _mine_both(db, small_moa, config)
        assert _signature(dense) == _signature(bigint)
        assert dense.all_rules  # the Bread rows must still surface rules


class TestLeakyMOA:
    def test_promo_leak_identical(self, small_db, small_catalog, small_hierarchy):
        # The leaked <Sunchip @ L> body exercises the miner's (body, head)
        # skip-guard on both backends; they must skip identically.
        leaky = LeakyMOA(small_catalog, small_hierarchy, use_moa=True)
        config = MinerConfig(min_support=0.05, max_body_size=2)
        dense, bigint = _mine_both(small_db, leaky, config)
        assert _signature(dense) == _signature(bigint)


class TestFilterDerivations:
    @given(mining_problems())
    @settings(max_examples=20, deadline=None)
    def test_filtered_dense_equals_filtered_bigint(self, problem):
        db, moa, config = problem
        low = replace(config, min_support=0.05)
        dense, bigint = _mine_both(db, moa, low)
        for min_support in (0.1, 0.3):
            assert _signature(
                filter_mining_result(dense, min_support)
            ) == _signature(filter_mining_result(bigint, min_support))

    def test_filtered_dense_equals_direct_mine(self, small_db, small_moa):
        config = MinerConfig(min_support=0.05, max_body_size=2)
        dense = mine_rules(
            small_db,
            small_moa,
            SavingMOA(),
            replace(config, backend="dense"),
        )
        filtered = filter_mining_result(dense, 0.2)
        direct = mine_rules(
            small_db,
            small_moa,
            SavingMOA(),
            replace(config, min_support=0.2, backend="bigint"),
        )
        assert _signature(filtered) == _signature(direct)
