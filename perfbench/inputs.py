"""Seeded inputs: data files, held-out baskets and request payloads.

The ``--seed`` argument is the only randomness.  Each stream the
benchmark needs is derived from it with a fixed offset, so one seed
always yields byte-identical files and payloads and two seeds differ.
The serving world is the one exception by design: it is pinned to the
``test_serve_cold`` world (seed 11) so rule counts match the ROADMAP.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

from repro.core.rule_index import basket_key
from repro.core.sales import Sale
from repro.data.datasets import build_dataset, dataset_i_config

#: Offset that separates the seed's held-out stream from its data.
HELDOUT_OFFSET = 1_000_003
#: The serving world of ``benchmarks/test_serve_cold.py``.
WORLD = {"n_transactions": 1500, "n_items": 150, "seed": 11}
WORLD_MIN_SUPPORT = 0.005
FIT_MIN_SUPPORT = 0.01  # the CLI ``fit`` defaults


#: Datasets each fit_20k run fits in turn.  Their mining work differs by
#: up to a quarter from one seed to the next, so a run averages several.
FIT_DATASETS = 3


def fit_seeds(seed: int) -> list[int]:
    """Dataset seeds of the fit_20k run with seed ``seed``; distinct per seed."""
    return [seed * FIT_DATASETS + i for i in range(FIT_DATASETS)]


def fit_config(seed: int, n_transactions: int):
    """Dataset I at the CLI ``generate`` defaults (300 items)."""
    return dataset_i_config(n_transactions=n_transactions, n_items=300, seed=seed)


def world_dataset():
    return build_dataset(dataset_i_config(**WORLD))


def distinct_baskets(
    seed: int, n_items: int, count: int, exclude: Sequence[Sequence[Sale]] = ()
) -> list[tuple[Sale, ...]]:
    """``count`` held-out Dataset I baskets, distinct by ``basket_key``.

    Drawn from Dataset I transactions generated with the seed's held-out
    stream, in generation order; baskets whose key is in ``exclude`` are
    skipped.  Grows the draw until enough distinct keys exist.
    """
    seen = {basket_key(b) for b in exclude}
    n_transactions = max(64, int(count * 1.3))
    while True:
        ds = build_dataset(
            dataset_i_config(
                n_transactions=n_transactions,
                n_items=n_items,
                seed=seed + HELDOUT_OFFSET,
            )
        )
        out = []
        keys = set(seen)
        for transaction in ds.db.transactions:
            basket = transaction.nontarget_sales
            key = basket_key(basket)
            if key not in keys:
                keys.add(key)
                out.append(basket)
                if len(out) == count:
                    return out
        n_transactions *= 2


def basket_json(basket: Sequence[Sale]) -> list[dict[str, Any]]:
    return [
        {"item": s.item_id, "promo": s.promo_code, "quantity": s.quantity}
        for s in basket
    ]


def encode(payload: Any) -> bytes:
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()
