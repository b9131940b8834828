"""Per-layer probes, timed from outside around each layer's public calls."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Sequence

from common import Spans, child_env, median
from repro import obs
from repro.campaign import plan_campaign
from repro.core.sales import Sale
from repro.data.model_io import load_model
from repro.serve.http import json_response
from repro.whatif import what_if

_IMPORT_SERVE = (
    "import time; t = time.perf_counter(); import repro.serve; "
    "print(time.perf_counter() - t)"
)


def import_serve_s(repeats: int) -> float:
    """Median cost of a fresh ``import repro.serve``."""
    samples = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_SERVE],
            capture_output=True, check=True, env=child_env(), text=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return median(samples)


def _per_item_us(seconds: float, n: int) -> float:
    return seconds / n * 1e6


def serving_layers(
    artifact: Path,
    baskets: Sequence[Sequence[Sale]],
    plan_baskets: Sequence[Sequence[Sale]],
    spans: Spans,
    repeats: int,
) -> dict[str, float]:
    """Load, match (memo miss then hit), top-k, encode, what-if and plan.

    ``baskets`` must be distinct by ``basket_key`` so the first pass over
    a fresh load misses the memo; the second pass over the same baskets
    hits it.
    """
    layers: dict[str, float] = {}
    loads = []
    for _ in range(repeats):
        with spans.span("data.model_io.load") as t:
            recommender = load_model(artifact)
        loads.append(t.seconds)
    layers["data.model_io.load_s"] = median(loads)
    layers["data.model_io.artifact_bytes"] = os.path.getsize(artifact)

    # Build whatever the load left lazy on an empty basket, whose memo key
    # no measured basket shares, so the miss pass times matching alone.
    recommender.recommend_many([()])
    recommender.recommend_top_k_many([()], 3)
    n = len(baskets)
    with spans.span("core.mpf.match_miss") as t:
        recs = recommender.recommend_many(baskets)
    layers["core.mpf.match_miss_us"] = _per_item_us(t.seconds, n)
    with spans.span("core.mpf.match_hit") as t:
        recommender.recommend_many(baskets)
    layers["core.mpf.match_hit_us"] = _per_item_us(t.seconds, n)
    with spans.span("core.mpf.topk_miss") as t:
        recommender.recommend_top_k_many(baskets, 3)
    layers["core.mpf.topk_miss_us"] = _per_item_us(t.seconds, n)
    with spans.span("core.mpf.topk_hit") as t:
        recommender.recommend_top_k_many(baskets, 3)
    layers["core.mpf.topk_hit_us"] = _per_item_us(t.seconds, n)

    # The postings footprint comes from the program's own counters, on a
    # separate fresh load so the timed passes above run untraced.
    counted = load_model(artifact)
    with obs.tracing("postings") as trace:
        counted.recommend_many(baskets)
    calls = trace.counters.get("serve.match_calls", 0)
    layers["core.mpf.postings_per_basket"] = (
        trace.counters.get("serve.postings_scanned", 0) / calls if calls else 0.0
    )

    reply = {
        "recommendations": [
            {"item": r.item_id, "promo": r.promo_code} for r in recs[:100]
        ],
        "model": recommender.name,
        "generation": 1,
    }
    encodes = []
    with spans.span("serve.http.encode"):
        for _ in range(100):
            started = time.perf_counter()
            raw = json_response(200, reply)
            encodes.append(time.perf_counter() - started)
    layers["serve.http.encode_us"] = median(encodes) * 1e6
    layers["serve.http.response_bytes"] = len(raw)

    with spans.span("whatif.what_if") as t:
        for basket in plan_baskets:
            what_if(recommender, basket)
    layers["whatif.what_if_us"] = _per_item_us(t.seconds, len(plan_baskets))
    plans = []
    for _ in range(repeats):
        with spans.span("campaign.plan") as t:
            plan_campaign(recommender, plan_baskets, max_offers=3)
        plans.append(t.seconds)
    layers["campaign.plan_ms"] = median(plans) * 1e3
    return layers


def daemon_layers(stats: Sequence[dict[str, Any]]) -> dict[str, float]:
    """Layer metrics from traced daemons' ``GET /stats``, summed over them."""
    total: dict[str, float] = {}

    def add(name: str, value: float) -> None:
        total[name] = total.get(name, 0) + value

    for doc in stats:
        counters, trace = doc["counters"], doc["trace"]
        for name in ("recommend_requests", "batches_flushed", "rejected_requests"):
            add(name, counters[name])
        for name in ("serve.sampled_calls", "serve.sampled_seconds"):
            add(name, trace["counters"].get(name, 0))
        for cache in ("serve.basket_memo", "serve.topk_memo"):
            entry = trace["caches"].get(cache, {})
            add("hits", entry.get("hits", 0))
            add("misses", entry.get("misses", 0))
    flushed, sampled = total["batches_flushed"], total["serve.sampled_calls"]
    lookups = total["hits"] + total["misses"]
    return {
        "serve.daemon.batch_size_mean": (
            total["recommend_requests"] / flushed if flushed else 0.0
        ),
        "serve.daemon.sampled_serve_ms": (
            total["serve.sampled_seconds"] / sampled * 1e3 if sampled else 0.0
        ),
        "serve.daemon.memo_hit_ratio": total["hits"] / lookups if lookups else 0.0,
        "serve.daemon.rejected": total["rejected_requests"],
    }
