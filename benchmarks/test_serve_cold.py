"""Cold-start serving benchmark: model load to first 1k recommendations.

A serving process that restores a persisted model pays a fixed startup
cost before the first recommendation leaves the building.  On the v1
format that cost includes re-deriving the whole engine: enumerating the
symbol universe, interning every rule body and rebuilding the inverted
postings.  The v2 format persists the compiled engine (symbol table +
postings), so :func:`~repro.data.model_io.load_model` hands back a
recommender whose index is ready.  This benchmark times the full cold
window — ``load_model`` through 1 000 served baskets — on both formats
for the *same* model and asserts the v2 path is at least
``SERVE_SPEEDUP_FLOOR`` times faster (median over rounds; both paths run
back to back on the same machine).  The v3 columnar store, the default
format, is timed in the same rounds and held to the same floor against
v1.  Timings land in ``BENCH_serve_cold.json`` for the CI artifact,
beside the median of a few fresh-interpreter ``import repro.serve``
timings: a freshly spawned daemon pays that import before it can load
anything.

The model is the miner's *initial* (unpruned) recommender: thousands of
mined rules, the scale at which re-compiling on load actually hurts and
the honest worst case for a persisted artifact.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.core.miner import ProfitMiner, ProfitMinerConfig
from repro.core.mining import MinerConfig
from repro.data.datasets import build_dataset, dataset_i_config
from repro.data.model_io import load_model, save_model

MINSUP = 0.005  # low support -> ~20k mined rules, a compile-bound cold start
BODY = 2
N_BASKETS = 1000
N_ROUNDS = 3
N_IMPORT_PROBES = 3
SERVE_SPEEDUP_FLOOR = 2.0


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(
        dataset_i_config(n_transactions=1500, n_items=150, seed=11)
    )


@pytest.fixture(scope="module")
def unpruned_recommender(dataset):
    miner = ProfitMiner(
        dataset.hierarchy,
        config=ProfitMinerConfig(
            mining=MinerConfig(min_support=MINSUP, max_body_size=BODY)
        ),
    ).fit(dataset.db)
    return miner.initial_recommender


@pytest.fixture(scope="module")
def baskets(dataset):
    transactions = itertools.cycle(dataset.db.transactions)
    return [next(transactions).nontarget_sales for _ in range(N_BASKETS)]


def _cold_serve_seconds(path, baskets) -> float:
    """One cold round: load the artifact, serve every basket."""
    started = time.perf_counter()
    recommender = load_model(path)
    recommendations = recommender.recommend_many(baskets)
    elapsed = time.perf_counter() - started
    assert len(recommendations) == len(baskets)
    return elapsed


def _fresh_import_serve_seconds() -> float:
    """``import repro.serve`` wall time in a fresh interpreter."""
    probe = (
        "import time; started = time.perf_counter(); import repro.serve; "
        "print(time.perf_counter() - started)"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return float(result.stdout.strip().splitlines()[-1])


def _bench_json_path() -> str:
    return os.environ.get("REPRO_BENCH_SERVE_JSON", "BENCH_serve_cold.json")


def test_perf_serve_cold_start(tmp_path, unpruned_recommender, baskets):
    """Cold start (load -> 1k recommendations): v2/v3 engine vs v1 rebuild."""
    paths = {version: tmp_path / f"model_v{version}.json" for version in (1, 2, 3)}
    for version, path in paths.items():
        save_model(unpruned_recommender, path, version=version)

    # Every format must serve the same picks before any timing matters.
    picks = {
        version: [
            (p.item_id, p.promo_code)
            for p in load_model(path).recommend_many(baskets)
        ]
        for version, path in paths.items()
    }
    assert picks[1] == picks[2]
    assert picks[1] == picks[3]

    rounds: dict[int, list[float]] = {version: [] for version in paths}
    for _ in range(N_ROUNDS):
        for version, path in paths.items():
            rounds[version].append(_cold_serve_seconds(path, baskets))
    v1_rounds, v2_rounds, v3_rounds = rounds[1], rounds[2], rounds[3]

    median_v1 = statistics.median(v1_rounds)
    median_v2 = statistics.median(v2_rounds)
    median_v3 = statistics.median(v3_rounds)
    speedup = median_v1 / median_v2
    speedup_v3 = median_v1 / median_v3
    import_rounds = [_fresh_import_serve_seconds() for _ in range(N_IMPORT_PROBES)]
    median_import = statistics.median(import_rounds)

    report = {
        "serve_cold": {
            "workload": {
                "n_transactions": 1500,
                "n_items": 150,
                "seed": 11,
                "min_support": MINSUP,
                "max_body_size": BODY,
                "n_rules": unpruned_recommender.model_size,
                "n_baskets": N_BASKETS,
                "rounds": N_ROUNDS,
            },
            "v1_rounds_s": v1_rounds,
            "v2_rounds_s": v2_rounds,
            "v3_rounds_s": v3_rounds,
            "median_v1_s": median_v1,
            "median_v2_s": median_v2,
            "median_v3_s": median_v3,
            "speedup": speedup,
            "speedup_v3": speedup_v3,
            "import_serve_rounds_s": import_rounds,
            "median_import_serve_s": median_import,
            "floor": SERVE_SPEEDUP_FLOOR,
            "identical_picks": True,
        }
    }
    path = _bench_json_path()
    existing = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            existing = json.load(handle)
    existing.update(report)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(existing, handle, indent=2)

    print(
        f"\ncold start over {unpruned_recommender.model_size} rules: "
        f"v2 median {median_v2:.3f}s vs v1 median {median_v1:.3f}s -> "
        f"{speedup:.2f}x, v3 median {median_v3:.3f}s -> {speedup_v3:.2f}x "
        f"(floor {SERVE_SPEEDUP_FLOOR:.1f}x), "
        f"{N_BASKETS}/{N_BASKETS} picks identical; fresh "
        f"`import repro.serve` median {median_import:.3f}s"
    )
    assert speedup >= SERVE_SPEEDUP_FLOOR, (
        f"v2 cold start {speedup:.2f}x below the {SERVE_SPEEDUP_FLOOR}x "
        f"floor (v1 {v1_rounds}, v2 {v2_rounds})"
    )
    assert speedup_v3 >= SERVE_SPEEDUP_FLOOR, (
        f"v3 cold start {speedup_v3:.2f}x below the {SERVE_SPEEDUP_FLOOR}x "
        f"floor (v1 {v1_rounds}, v3 {v3_rounds})"
    )
