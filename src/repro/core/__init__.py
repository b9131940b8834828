"""Core profit-mining machinery: the paper's primary contribution.

Import the high-level pieces from here::

    from repro.core import ProfitMiner, ProfitMinerConfig, SavingMOA

Names are exported lazily (PEP 562): each is imported from its defining
submodule on first access.  Serving loads a persisted model through
:mod:`repro.core.mpf` and never mines, covers or prunes, so importing
one submodule must not execute the others — in particular
:mod:`repro.core.pessimistic`, whose eager ``scipy.stats`` import costs
about a second, stays off the ``repro serve`` start-up path
(``tests/unit/test_import_graph.py`` enforces this).
"""

from importlib import import_module

_EXPORTS = {
    "CoveringNode": "repro.core.covering",
    "CoveringTree": "repro.core.covering",
    "build_covering_tree": "repro.core.covering",
    "CompiledModel": "repro.core.engine",
    "SymbolTable": "repro.core.engine",
    "GKind": "repro.core.generalized",
    "GSale": "repro.core.generalized",
    "ROOT_CONCEPT": "repro.core.hierarchy",
    "ConceptHierarchy": "repro.core.hierarchy",
    "FitCache": "repro.core.index_cache",
    "Item": "repro.core.items",
    "ItemCatalog": "repro.core.items",
    "ProfitMiner": "repro.core.miner",
    "ProfitMinerConfig": "repro.core.miner",
    "MinerConfig": "repro.core.mining",
    "MiningResult": "repro.core.mining",
    "TransactionIndex": "repro.core.mining",
    "filter_mining_result": "repro.core.mining",
    "mine_rules": "repro.core.mining",
    "MOAHierarchy": "repro.core.moa",
    "MPFRecommender": "repro.core.mpf",
    "DEFAULT_CF": "repro.core.pessimistic",
    "pessimistic_hits": "repro.core.pessimistic",
    "pessimistic_miss_rate": "repro.core.pessimistic",
    "BinaryProfit": "repro.core.profit",
    "BuyingMOA": "repro.core.profit",
    "ProfitModel": "repro.core.profit",
    "SavingMOA": "repro.core.profit",
    "profit_model_from_name": "repro.core.profit",
    "PromotionCode": "repro.core.promotion",
    "favorability_covers": "repro.core.promotion",
    "is_at_least_as_favorable": "repro.core.promotion",
    "is_more_favorable": "repro.core.promotion",
    "maximal_codes": "repro.core.promotion",
    "sort_by_favorability": "repro.core.promotion",
    "PruneConfig": "repro.core.pruning",
    "PruneReport": "repro.core.pruning",
    "cut_optimal_prune": "repro.core.pruning",
    "Recommendation": "repro.core.recommender",
    "Recommender": "repro.core.recommender",
    "RuleMatchIndex": "repro.core.rule_index",
    "basket_key": "repro.core.rule_index",
    "Rule": "repro.core.rules",
    "RuleStats": "repro.core.rules",
    "ScoredRule": "repro.core.rules",
    "QueryHit": "repro.core.rulestore",
    "RankedView": "repro.core.rulestore",
    "RuleStore": "repro.core.rulestore",
    "Sale": "repro.core.sales",
    "Transaction": "repro.core.sales",
    "TransactionDB": "repro.core.sales",
    "concat": "repro.core.sales",
}

__all__ = [
    "BinaryProfit",
    "BuyingMOA",
    "CompiledModel",
    "ConceptHierarchy",
    "CoveringNode",
    "CoveringTree",
    "DEFAULT_CF",
    "FitCache",
    "GKind",
    "GSale",
    "Item",
    "ItemCatalog",
    "MinerConfig",
    "MiningResult",
    "MOAHierarchy",
    "MPFRecommender",
    "ProfitMiner",
    "ProfitMinerConfig",
    "ProfitModel",
    "PromotionCode",
    "PruneConfig",
    "PruneReport",
    "QueryHit",
    "RankedView",
    "Recommendation",
    "Recommender",
    "ROOT_CONCEPT",
    "Rule",
    "RuleMatchIndex",
    "RuleStats",
    "RuleStore",
    "Sale",
    "SavingMOA",
    "ScoredRule",
    "SymbolTable",
    "Transaction",
    "TransactionDB",
    "TransactionIndex",
    "basket_key",
    "build_covering_tree",
    "concat",
    "cut_optimal_prune",
    "favorability_covers",
    "filter_mining_result",
    "is_at_least_as_favorable",
    "is_more_favorable",
    "maximal_codes",
    "mine_rules",
    "pessimistic_hits",
    "pessimistic_miss_rate",
    "profit_model_from_name",
    "sort_by_favorability",
]


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(import_module(module), name)
    globals()[name] = value  # cache: __getattr__ fires once per name
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
