"""Evaluation: metrics, cross-validation, behavior models, experiments.

Names are exported lazily (PEP 562), like :mod:`repro.data`'s: most of
the harness needs numpy, but :mod:`repro.eval.reporting` (the plain-text
tables the CLI prints for ``query`` and ``plan``) is stdlib-only and must
stay importable on a numpy-free install without dragging the rest in.
"""

from importlib import import_module

_EXPORTS = {
    "BehaviorAdjustedProfit": "repro.eval.behavior",
    "BehaviorClause": "repro.eval.behavior",
    "QuantityBehavior": "repro.eval.behavior",
    "behavior_paper_combined": "repro.eval.behavior",
    "behavior_x2_y30": "repro.eval.behavior",
    "behavior_x3_y40": "repro.eval.behavior",
    "price_step_gap": "repro.eval.behavior",
    "CVResult": "repro.eval.cross_validation",
    "cross_validate": "repro.eval.cross_validation",
    "kfold_indices": "repro.eval.cross_validation",
    "MOA_SYSTEMS": "repro.eval.experiments",
    "ExperimentScale": "repro.eval.experiments",
    "behavior_gain": "repro.eval.experiments",
    "gain_and_size_sweep": "repro.eval.experiments",
    "get_dataset": "repro.eval.experiments",
    "knn_postprocessing_delta": "repro.eval.experiments",
    "profit_distribution": "repro.eval.experiments",
    "profit_range_hit_rates": "repro.eval.experiments",
    "scale_from_env": "repro.eval.experiments",
    "PAPER_SYSTEMS": "repro.eval.harness",
    "SweepPoint": "repro.eval.harness",
    "SweepResult": "repro.eval.harness",
    "paper_recommenders": "repro.eval.harness",
    "run_single_support": "repro.eval.harness",
    "run_support_sweep": "repro.eval.harness",
    "NO_OFFER": "repro.eval.metrics",
    "EvalConfig": "repro.eval.metrics",
    "EvalResult": "repro.eval.metrics",
    "TransactionOutcome": "repro.eval.metrics",
    "evaluate": "repro.eval.metrics",
    "evaluate_top_k": "repro.eval.metrics",
    "format_histogram": "repro.eval.reporting",
    "format_series": "repro.eval.reporting",
    "format_table": "repro.eval.reporting",
    "generate_markdown_report": "repro.eval.report",
    "PairedComparison": "repro.eval.stats",
    "compare_gains": "repro.eval.stats",
    "compare_hit_rates": "repro.eval.stats",
}

__all__ = [
    "BehaviorAdjustedProfit",
    "BehaviorClause",
    "CVResult",
    "EvalConfig",
    "EvalResult",
    "ExperimentScale",
    "MOA_SYSTEMS",
    "NO_OFFER",
    "PAPER_SYSTEMS",
    "PairedComparison",
    "QuantityBehavior",
    "SweepPoint",
    "SweepResult",
    "TransactionOutcome",
    "behavior_gain",
    "behavior_paper_combined",
    "behavior_x2_y30",
    "behavior_x3_y40",
    "compare_gains",
    "compare_hit_rates",
    "cross_validate",
    "evaluate",
    "evaluate_top_k",
    "format_histogram",
    "format_series",
    "format_table",
    "gain_and_size_sweep",
    "generate_markdown_report",
    "get_dataset",
    "kfold_indices",
    "knn_postprocessing_delta",
    "paper_recommenders",
    "price_step_gap",
    "profit_distribution",
    "profit_range_hit_rates",
    "run_single_support",
    "run_support_sweep",
    "scale_from_env",
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
