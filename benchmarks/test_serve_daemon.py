"""Daemon serving gate: sustained throughput and tail latency over HTTP.

Boots the real serving daemon (``repro.serve``) in-process on the
standard synthetic model — the same 1500-transaction dataset-I world the
cold-start benchmark uses, served as the cut-optimal artifact ``fit
--save-model`` would produce — and drives it through real sockets with
``http.client``:

* **throughput** — client-batched ``POST /recommend_batch`` requests
  cycling through every training basket until ``N_THROUGHPUT_BASKETS``
  have been served; the gate requires ≥ ``THROUGHPUT_FLOOR`` baskets/sec
  sustained over the whole window (socket framing, JSON parsing and
  serving included).
* **latency** — sequential single-basket ``POST /recommend`` requests
  through the micro-batching queue; the gate requires p50 ≤
  ``P50_CEILING_MS`` (the default ``max_linger_ms``: a lone request must
  not wait out the linger) and p99 ≤ ``P99_CEILING_MS`` per request.

Numbers land in ``BENCH_serve_daemon.json`` for the CI artifact.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import time

import pytest

from repro.core.miner import ProfitMiner, ProfitMinerConfig
from repro.core.mining import MinerConfig
from repro.data.datasets import build_dataset, dataset_i_config
from repro.data.model_io import save_model
from repro.serve import BackgroundDaemon, ServeConfig

MINSUP = 0.01
BODY = 2
BATCH_SIZE = 100
N_THROUGHPUT_BASKETS = int(
    os.environ.get("REPRO_BENCH_DAEMON_BASKETS", 40_000)
)
N_LATENCY_REQUESTS = int(os.environ.get("REPRO_BENCH_DAEMON_SINGLES", 500))
THROUGHPUT_FLOOR = 2_000.0  # baskets per second, sustained
P50_CEILING_MS = 1.0
P99_CEILING_MS = 10.0


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(
        dataset_i_config(n_transactions=1500, n_items=150, seed=11)
    )


@pytest.fixture(scope="module")
def model_path(dataset, tmp_path_factory):
    miner = ProfitMiner(
        dataset.hierarchy,
        config=ProfitMinerConfig(
            mining=MinerConfig(min_support=MINSUP, max_body_size=BODY)
        ),
    ).fit(dataset.db)
    path = tmp_path_factory.mktemp("daemon_model") / "model.json"
    save_model(miner.require_fitted_recommender(), path)
    return str(path)


@pytest.fixture(scope="module")
def payloads(dataset):
    return [
        [
            {"item": s.item_id, "promo": s.promo_code, "quantity": s.quantity}
            for s in t.nontarget_sales
        ]
        for t in dataset.db.transactions
    ]


def _bench_json_path() -> str:
    return os.environ.get(
        "REPRO_BENCH_SERVE_DAEMON_JSON", "BENCH_serve_daemon.json"
    )


def _write_report(section: dict) -> None:
    path = _bench_json_path()
    existing = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            existing = json.load(handle)
    existing.setdefault("serve_daemon", {}).update(section)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(existing, handle, indent=2)


def test_perf_daemon_throughput_and_p99(model_path, payloads):
    """One daemon, two gates: batch throughput then single-request p99."""
    config = ServeConfig(port=0, max_batch_size=64, max_linger_ms=1.0)
    with BackgroundDaemon(model_path, config) as daemon:
        port = daemon.port
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            # -- throughput: client-batched requests, pre-encoded once --
            batches = [
                json.dumps({"baskets": payloads[i : i + BATCH_SIZE]})
                for i in range(0, len(payloads), BATCH_SIZE)
            ]
            batch_sizes = [
                len(payloads[i : i + BATCH_SIZE])
                for i in range(0, len(payloads), BATCH_SIZE)
            ]
            # Warm the daemon's basket memo before timing the window.
            for body in batches:
                conn.request("POST", "/recommend_batch", body=body)
                response = conn.getresponse()
                assert response.status == 200
                response.read()
            served = 0
            cycle = itertools.cycle(zip(batches, batch_sizes))
            started = time.perf_counter()
            while served < N_THROUGHPUT_BASKETS:
                body, size = next(cycle)
                conn.request("POST", "/recommend_batch", body=body)
                response = conn.getresponse()
                assert response.status == 200
                payload = json.loads(response.read())
                assert len(payload["recommendations"]) == size
                served += size
            throughput_window_s = time.perf_counter() - started
            throughput = served / throughput_window_s

            # -- latency: sequential singles through the micro-batcher --
            singles = [
                json.dumps({"basket": basket})
                for basket in payloads[:N_LATENCY_REQUESTS]
            ]
            latencies_ms = []
            for body in singles:
                t0 = time.perf_counter()
                conn.request("POST", "/recommend", body=body)
                response = conn.getresponse()
                assert response.status == 200
                response.read()
                latencies_ms.append((time.perf_counter() - t0) * 1000.0)
        finally:
            conn.close()

        status_conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            status_conn.request("GET", "/stats")
            stats = json.loads(status_conn.getresponse().read())
        finally:
            status_conn.close()

    latencies_ms.sort()
    p50 = latencies_ms[len(latencies_ms) // 2]
    p99 = latencies_ms[min(len(latencies_ms) - 1, int(len(latencies_ms) * 0.99))]

    _write_report(
        {
            "workload": {
                "n_transactions": 1500,
                "n_items": 150,
                "seed": 11,
                "min_support": MINSUP,
                "max_body_size": BODY,
                "n_rules": stats["n_rules"],
                "batch_size": BATCH_SIZE,
                "n_throughput_baskets": served,
                "n_latency_requests": len(latencies_ms),
            },
            "throughput_baskets_per_s": throughput,
            "throughput_window_s": throughput_window_s,
            "throughput_floor": THROUGHPUT_FLOOR,
            "p50_ms": p50,
            "p50_ceiling_ms": P50_CEILING_MS,
            "p99_ms": p99,
            "p99_ceiling_ms": P99_CEILING_MS,
            "daemon_counters": stats["counters"],
        }
    )
    print(
        f"\ndaemon over {stats['n_rules']} rules: "
        f"{throughput:,.0f} baskets/s sustained over "
        f"{throughput_window_s:.2f}s (floor {THROUGHPUT_FLOOR:,.0f}), "
        f"single-request p50 {p50:.2f}ms / p99 {p99:.2f}ms "
        f"(ceilings {P50_CEILING_MS:.0f}ms / {P99_CEILING_MS:.0f}ms)"
    )
    assert throughput >= THROUGHPUT_FLOOR, (
        f"sustained throughput {throughput:,.0f} baskets/s below the "
        f"{THROUGHPUT_FLOOR:,.0f} floor"
    )
    assert p50 <= P50_CEILING_MS, (
        f"single-request p50 {p50:.2f}ms above the {P50_CEILING_MS}ms ceiling"
    )
    assert p99 <= P99_CEILING_MS, (
        f"single-request p99 {p99:.2f}ms above the {P99_CEILING_MS}ms ceiling"
    )
