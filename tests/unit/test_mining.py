"""Unit tests for the generalized association-rule miner (Section 3.1)."""

from __future__ import annotations

import math

import pytest

from repro.core.generalized import GKind, GSale
from repro.core.mining import MinerConfig, TransactionIndex, mine_rules
from repro.core.moa import MOAHierarchy
from repro.core.profit import BinaryProfit, SavingMOA
from repro.core.sales import Sale, Transaction, TransactionDB
from repro.errors import MiningError, ValidationError


@pytest.fixture
def mined(small_db, small_moa):
    return mine_rules(
        small_db,
        small_moa,
        SavingMOA(),
        MinerConfig(min_support=0.05, max_body_size=2),
    )


class TestMinerConfig:
    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5])
    def test_min_support_bounds(self, bad):
        with pytest.raises(ValidationError, match="min_support"):
            MinerConfig(min_support=bad)

    def test_other_bounds(self):
        with pytest.raises(ValidationError, match="min_confidence"):
            MinerConfig(min_confidence=1.2)
        with pytest.raises(ValidationError, match="min_rule_profit"):
            MinerConfig(min_rule_profit=-1)
        with pytest.raises(ValidationError, match="max_body_size"):
            MinerConfig(max_body_size=0)

    def test_backend_and_jobs_bounds(self):
        with pytest.raises(ValidationError, match="backend"):
            MinerConfig(backend="sparse")
        with pytest.raises(ValidationError, match="n_jobs"):
            MinerConfig(n_jobs=0)
        # The valid settings construct fine without resolving anything.
        assert MinerConfig(backend="dense", n_jobs=4).n_jobs == 4
        assert MinerConfig().backend == "auto"


class TestTransactionIndex:
    def test_empty_db_rejected(self, small_catalog, small_moa):
        empty = TransactionDB(catalog=small_catalog, transactions=[])
        with pytest.raises(MiningError, match="empty"):
            TransactionIndex(db=empty, moa=small_moa, profit_model=SavingMOA())

    def test_masks_count_transactions(self, small_db, small_moa):
        index = TransactionIndex(
            db=small_db, moa=small_moa, profit_model=SavingMOA()
        )
        perfume_id = index.gsale_id(GSale.item("Perfume"))
        assert index.body_masks[perfume_id].bit_count() == 31

    def test_head_profits_follow_profit_model(self, small_db, small_moa):
        index = TransactionIndex(
            db=small_db, moa=small_moa, profit_model=SavingMOA()
        )
        low = index.gsale_id(GSale.promo_form("Sunchip", "L"))
        # every hit with head L credits the L profit of $1.8 per unit
        for pos in TransactionIndex.iter_bits(index.head_hits_mask(low)):
            assert index.hit_profit(pos, low) == pytest.approx(1.8)

    @pytest.mark.parametrize("profit_model", [SavingMOA(), BinaryProfit()])
    def test_head_profits_shared_per_target_sale(
        self, small_db, small_moa, profit_model
    ):
        base = TransactionIndex(db=small_db, moa=small_moa, profit_model=SavingMOA())
        for index in (
            TransactionIndex(db=small_db, moa=small_moa, profit_model=profit_model),
            TransactionIndex.with_profit_model(base, profit_model),
        ):
            by_sale = {}
            for transaction, heads, profits in zip(
                small_db, index.head_sets, index.head_profits
            ):
                target = transaction.target_sale
                assert profits == {
                    hid: profit_model.credited_profit(
                        index.gsales[hid], target, small_db.catalog
                    )
                    for hid in heads
                }
                assert by_sale.setdefault(target, profits) is profits
            assert len(by_sale) < len(small_db)

    def test_iter_bits(self):
        assert list(TransactionIndex.iter_bits(0b101001)) == [0, 3, 5]
        assert list(TransactionIndex.iter_bits(0)) == []

    def test_body_mask_intersection(self, small_db, small_moa):
        index = TransactionIndex(
            db=small_db, moa=small_moa, profit_model=SavingMOA()
        )
        perfume = index.gsale_id(GSale.item("Perfume"))
        bread = index.gsale_id(GSale.item("Bread"))
        both = index.body_mask([perfume, bread])
        assert both.bit_count() == 1  # only the Diamond transaction

    def test_unknown_gsale_raises(self, small_db, small_moa):
        index = TransactionIndex(
            db=small_db, moa=small_moa, profit_model=SavingMOA()
        )
        with pytest.raises(MiningError, match="not present"):
            index.gsale_id(GSale.item("Ghost"))


class TestMineRules:
    def test_rule_supports_respect_threshold(self, mined, small_db):
        minsup_count = math.ceil(0.05 * len(small_db))
        for scored in mined.scored_rules:
            assert scored.stats.n_hits >= minsup_count

    def test_bodies_are_ancestor_free(self, mined, small_moa):
        for scored in mined.scored_rules:
            assert small_moa.is_ancestor_free(scored.rule.body)

    def test_heads_never_appear_in_bodies(self, mined):
        for scored in mined.scored_rules:
            for g in scored.rule.body:
                assert g.node != scored.rule.head.node

    def test_expected_rule_found(self, mined):
        # {Perfume} → ⟨Sunchip @ M⟩ captures the structure of small_db.
        described = {s.rule.describe() for s in mined.scored_rules}
        assert "{Perfume} -> <Sunchip @ M>" in described

    def test_rule_stats_verifiable_by_brute_force(self, mined, small_db, small_moa):
        for scored in mined.scored_rules[:25]:
            body, head = scored.rule.body, scored.rule.head
            matched = hits = 0
            profit = 0.0
            for t in small_db:
                gsales = small_moa.generalizations_of_basket(t.nontarget_sales)
                if not body <= gsales:
                    continue
                matched += 1
                if small_moa.hits(head, t.target_sale):
                    hits += 1
                    profit += SavingMOA().credited_profit(
                        head, t.target_sale, small_db.catalog
                    )
            assert scored.stats.n_matched == matched
            assert scored.stats.n_hits == hits
            assert scored.stats.rule_profit == pytest.approx(profit)

    def test_generation_orders_unique(self, mined):
        orders = [s.rule.order for s in mined.all_rules]
        assert len(orders) == len(set(orders))

    def test_default_rule_maximizes_recommendation_profit(
        self, mined, small_db, small_moa
    ):
        default = mined.default_rule
        assert default.rule.is_default
        # brute force over all candidate heads
        best = -1.0
        for head in small_moa.all_candidate_heads():
            total = sum(
                SavingMOA().profit(head, t.target_sale, small_moa)
                for t in small_db
            )
            best = max(best, total)
        assert default.stats.rule_profit == pytest.approx(best)

    def test_min_confidence_filters(self, small_db, small_moa):
        strict = mine_rules(
            small_db,
            small_moa,
            SavingMOA(),
            MinerConfig(min_support=0.05, min_confidence=0.9, max_body_size=2),
        )
        assert all(s.stats.confidence >= 0.9 for s in strict.scored_rules)

    def test_min_rule_profit_filters(self, small_db, small_moa):
        strict = mine_rules(
            small_db,
            small_moa,
            SavingMOA(),
            MinerConfig(min_support=0.05, min_rule_profit=50.0, max_body_size=2),
        )
        assert all(s.stats.rule_profit >= 50.0 for s in strict.scored_rules)

    def test_max_body_size_limits(self, small_db, small_moa):
        shallow = mine_rules(
            small_db, small_moa, SavingMOA(), MinerConfig(min_support=0.05, max_body_size=1)
        )
        assert all(s.rule.body_size <= 1 for s in shallow.scored_rules)

    def test_binary_profit_counts_hits(self, small_db, small_moa):
        result = mine_rules(
            small_db,
            small_moa,
            BinaryProfit(),
            MinerConfig(min_support=0.05, max_body_size=1),
        )
        for scored in result.scored_rules:
            assert scored.stats.rule_profit == pytest.approx(scored.stats.n_hits)

    def test_higher_support_yields_fewer_rules(self, small_db, small_moa):
        few = mine_rules(
            small_db, small_moa, SavingMOA(), MinerConfig(min_support=0.4, max_body_size=2)
        )
        many = mine_rules(
            small_db, small_moa, SavingMOA(), MinerConfig(min_support=0.05, max_body_size=2)
        )
        assert len(few.scored_rules) < len(many.scored_rules)

    def test_without_moa_no_cross_price_bodies(self, small_db, small_catalog, small_hierarchy):
        plain = MOAHierarchy(small_catalog, small_hierarchy, use_moa=False)
        result = mine_rules(
            small_db, plain, SavingMOA(), MinerConfig(min_support=0.05, max_body_size=2)
        )
        # P2 bread sales exist only in one transaction; the P1 promo form
        # must not pick up P2 sales without MOA.
        for scored in result.scored_rules:
            if GSale.promo_form("Bread", "P1") in scored.rule.body:
                assert scored.stats.n_matched <= 29

    def test_candidate_explosion_guard(self, small_db, small_moa):
        config = MinerConfig(
            min_support=0.02, max_body_size=3, max_candidates_per_level=1
        )
        with pytest.raises(MiningError, match="explosion"):
            mine_rules(small_db, small_moa, SavingMOA(), config)

    @pytest.mark.parametrize("backend", ["bigint", "dense", "ooc"])
    def test_level2_cap_is_exactly_all_pairs(self, tiny_dataset_i, backend):
        # Level 2 pairs every frequent gsale with every later one, so the
        # cap trips exactly above n1·(n1−1)/2 on every backend (ooc mines
        # the 600 transactions as one partition, whose local threshold is
        # the global one).
        db = tiny_dataset_i.db
        moa = MOAHierarchy(db.catalog, tiny_dataset_i.hierarchy)
        index = TransactionIndex(db=db, moa=moa, profit_model=SavingMOA())
        minsup = max(1, math.ceil(0.05 * index.n))
        n1 = sum(mask.bit_count() >= minsup for mask in index.body_masks.values())
        pairs = n1 * (n1 - 1) // 2

        def mine(cap):
            config = MinerConfig(
                min_support=0.05,
                max_body_size=2,
                max_candidates_per_level=cap,
                backend=backend,
            )
            return mine_rules(db, moa, SavingMOA(), config)

        assert mine(pairs).frequent_body_count > n1  # some pairs are frequent
        with pytest.raises(MiningError, match="explosion"):
            mine(pairs - 1)


class LeakyMOA(MOAHierarchy):
    """Generalization engine that leaks a target promo-form into baskets.

    ``Rule.__post_init__`` forbids a body promo-form naming the head's
    item.  A consistent catalog can never produce that combination (target
    items are not sold as non-target sales), but nothing in the
    :class:`MOAHierarchy` contract prevents a generalization engine from
    lifting one in — this subclass models that, reproducing the crash the
    miner's (body, head) skip-guard fixes.
    """

    def generalizations_of_sale(self, sale):
        """Every real generalization plus a leaked ``<Sunchip @ L>``."""
        return super().generalizations_of_sale(sale) | {
            GSale.promo_form("Sunchip", "L")
        }


class TestBodyHeadSeparationGuard:
    def test_rule_invariant_rejects_head_item_in_body(self):
        # The invariant the mining guard protects: a promo-form body member
        # must not name the head's item.
        from repro.core.rules import Rule

        with pytest.raises(ValidationError, match="head's target item"):
            Rule(
                body=frozenset([GSale.promo_form("Sunchip", "L")]),
                head=GSale.promo_form("Sunchip", "M"),
                order=0,
            )

    def test_mining_survives_leaked_target_promo_form(
        self, small_db, small_catalog, small_hierarchy
    ):
        leaky = LeakyMOA(small_catalog, small_hierarchy, use_moa=True)
        # <Sunchip @ L> now appears in every extended transaction, so it
        # becomes a frequent body; before the skip-guard this crashed with
        # ValidationError when paired with a Sunchip head.
        result = mine_rules(
            small_db,
            leaky,
            SavingMOA(),
            MinerConfig(min_support=0.05, max_body_size=2),
        )
        for scored in result.scored_rules:
            for g in scored.rule.body:
                assert not (
                    g.kind is GKind.PROMO and g.node == scored.rule.head.node
                )

    def test_leaked_body_still_allowed_with_other_item_heads(
        self, small_db, small_catalog, small_hierarchy
    ):
        leaky = LeakyMOA(small_catalog, small_hierarchy, use_moa=True)
        # At minsup=1 transaction the Diamond head is frequent; the leaked
        # Sunchip body may legally pair with it — only Sunchip heads are
        # blocked for that body.
        result = mine_rules(
            small_db,
            leaky,
            SavingMOA(),
            MinerConfig(min_support=0.01, max_body_size=1),
        )
        leaked = GSale.promo_form("Sunchip", "L")
        heads_for_leaked_body = {
            s.rule.head.node
            for s in result.scored_rules
            if leaked in s.rule.body
        }
        assert "Diamond" in heads_for_leaked_body
        assert "Sunchip" not in heads_for_leaked_body


class TestDefaultRuleTieBreak:
    def test_tie_keeps_most_specific_head(self, small_catalog, small_hierarchy):
        # All target sales record the top price H.  Under MOA every Sunchip
        # head (L, M, H) then hits every transaction, so with binary profit
        # all three tie on total credit; the most specific head — the
        # least favorable price, generated first — must win.
        transactions = [
            Transaction(tid, (Sale("Bread", "P1"),), Sale("Sunchip", "H"))
            for tid in range(10)
        ]
        db = TransactionDB(catalog=small_catalog, transactions=transactions)
        moa = MOAHierarchy(small_catalog, small_hierarchy, use_moa=True)
        result = mine_rules(
            db,
            moa,
            BinaryProfit(),
            MinerConfig(min_support=0.1, max_body_size=1),
        )
        default = result.default_rule
        assert default.rule.is_default
        assert default.rule.head == GSale.promo_form("Sunchip", "H")
        # The tie is real: every Sunchip head credits every transaction.
        for code in ("L", "M", "H"):
            assert all(
                moa.hits(GSale.promo_form("Sunchip", code), t.target_sale)
                for t in db
            )
