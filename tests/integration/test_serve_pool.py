"""End-to-end worker-pool tests: identity, crash recovery, coordinated swap.

Starts the real pre-fork pool in-process (``BackgroundPool``: a
supervisor thread forking actual worker processes) and exercises the
guarantees the single daemon cannot give alone:

* every worker serves bit-identical recommendations (kernel balancing
  never changes answers);
* ``kill -9`` of a worker under traffic is survived — the supervisor
  re-forks it, no request that reaches a live worker ever fails, and the
  restart is visible in the aggregated ``/stats``;
* a hot-swap triggered through any worker fans out to the whole pool,
  every in-flight response matches exactly one generation's model, and a
  worker restarted *after* the swap catches up to the pool generation
  before serving;
* artifact mtime polling (supervisor-side) swaps every worker.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import threading
import time

import pytest

from repro.core.miner import ProfitMiner, ProfitMinerConfig
from repro.core.mining import MinerConfig
from repro.data.datasets import build_dataset, dataset_i_config
from repro.data.model_io import load_model, save_model
from repro.serve import BackgroundPool, PoolConfig, ServeConfig


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Two structurally different artifacts plus their expected outputs."""
    root = tmp_path_factory.mktemp("pool_models")
    dataset = build_dataset(
        dataset_i_config(n_transactions=400, n_items=60, seed=3)
    )

    def fit(min_support: float):
        return ProfitMiner(
            dataset.hierarchy,
            config=ProfitMinerConfig(
                mining=MinerConfig(min_support=min_support, max_body_size=2)
            ),
        ).fit(dataset.db)

    path_a = root / "model_a.json"
    path_b = root / "model_b.json"
    save_model(fit(0.02).require_fitted_recommender(), path_a)
    save_model(fit(0.10).require_fitted_recommender(), path_b)

    baskets = [t.nontarget_sales for t in dataset.db.transactions[:30]]
    payloads = [
        [
            {"item": s.item_id, "promo": s.promo_code, "quantity": s.quantity}
            for s in basket
        ]
        for basket in baskets
    ]
    expected_a = [
        (r.item_id, r.promo_code)
        for r in load_model(path_a).recommend_many(baskets)
    ]
    expected_b = [
        (r.item_id, r.promo_code)
        for r in load_model(path_b).recommend_many(baskets)
    ]
    assert expected_a != expected_b
    return {
        "path_a": str(path_a),
        "path_b": str(path_b),
        "payloads": payloads,
        "expected_a": expected_a,
        "expected_b": expected_b,
    }


def _request(port: int, method: str, path: str, payload=None, timeout=30):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _worker_generations(port: int, model: str) -> list[int]:
    """Each live worker's generation for ``model``, from pool /stats."""
    status, stats = _request(port, "GET", "/stats")
    assert status == 200
    return [
        detail["generations"][model]
        for detail in stats["pool"]["workers_detail"]
        if "generations" in detail
    ]


class _TrafficThread(threading.Thread):
    """Keep-alive /recommend traffic that survives worker deaths.

    Connection-level drops (the killed worker's connections reset) are
    counted and followed by a reconnect; HTTP-level responses — requests
    that reached a live worker — are recorded for the caller to assert
    on.  Records ``(status, basket index, body, time)`` tuples.
    """

    def __init__(self, port: int, payloads) -> None:
        super().__init__()
        self.port = port
        self.payloads = payloads
        self.stop_event = threading.Event()
        self.results: list[tuple[int, int, dict, float]] = []
        self.reconnects = 0

    def run(self) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        index = 0
        try:
            while not self.stop_event.is_set():
                idx = index % len(self.payloads)
                index += 1
                try:
                    conn.request(
                        "POST",
                        "/recommend",
                        body=json.dumps({"basket": self.payloads[idx]}),
                    )
                    response = conn.getresponse()
                    body = json.loads(response.read())
                except (
                    ConnectionError,
                    http.client.HTTPException,
                    OSError,
                ):
                    conn.close()
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", self.port, timeout=30
                    )
                    self.reconnects += 1
                    continue
                self.results.append(
                    (response.status, idx, body, time.time())
                )
        finally:
            conn.close()


class TestPoolServing:
    def test_identity_and_aggregated_stats(self, world):
        config = ServeConfig(port=0, max_linger_ms=0.0)
        with BackgroundPool(
            world["path_a"], config, PoolConfig(workers=2)
        ) as pool:
            port = pool.port
            assert len(pool.pids) == 2
            # Fresh connection per request: the kernel spreads them over
            # both workers, and every answer must be bit-equal anyway.
            n_singles = 12
            for i in range(n_singles):
                idx = i % len(world["payloads"])
                status, body = _request(
                    port, "POST", "/recommend",
                    {"basket": world["payloads"][idx]},
                )
                assert status == 200
                assert (body["item"], body["promo"]) == world["expected_a"][idx]
                assert body["generation"] == 1
            status, body = _request(
                port, "POST", "/recommend_batch",
                {"baskets": world["payloads"]},
            )
            assert status == 200
            got = [(r["item"], r["promo"]) for r in body["recommendations"]]
            assert got == world["expected_a"]

            # /query serves from every worker's inherited store.
            status, body = _request(
                port, "POST", "/query", {"shape": "concept", "top": 5}
            )
            assert status == 200 and body["generation"] == 1

            # /stats aggregates the pool: counters sum across workers.
            status, stats = _request(port, "GET", "/stats")
            assert status == 200
            assert stats["counters"]["recommend_requests"] == n_singles
            assert stats["counters"]["batch_requests"] == 1
            assert (
                stats["counters"]["baskets_served"]
                == n_singles + len(world["payloads"])
            )
            pool_block = stats["pool"]
            assert pool_block["workers"] == 2
            assert pool_block["alive"] == 2
            assert pool_block["restarts"] == 0
            assert len(pool_block["workers_detail"]) == 2
            pids = {d["pid"] for d in pool_block["workers_detail"]}
            assert pids == set(pool.pids)
            # Each worker's own document stays reachable.
            status, local = _request(port, "GET", "/stats/local")
            assert status == 200
            assert local["worker"] in {0, 1}
            assert local["counters"]["requests"] <= stats["counters"]["requests"]

    def test_inherit_listener_mode(self, world):
        config = ServeConfig(port=0)
        with BackgroundPool(
            world["path_a"],
            config,
            PoolConfig(workers=2, listener="inherit"),
        ) as pool:
            assert pool.pool.mode == "inherit"
            assert len(pool.pids) == 2
            for idx in (0, 1, 2):
                status, body = _request(
                    pool.port, "POST", "/recommend",
                    {"basket": world["payloads"][idx]},
                )
                assert status == 200
                assert (body["item"], body["promo"]) == world["expected_a"][idx]


class TestWorkerCrash:
    def test_kill9_under_traffic_restarts_without_failures(self, world):
        config = ServeConfig(port=0, max_linger_ms=0.0)
        with BackgroundPool(
            world["path_a"],
            config,
            PoolConfig(workers=2, restart_backoff_s=0.05),
        ) as pool:
            port = pool.port
            threads = [
                _TrafficThread(port, world["payloads"]) for _ in range(2)
            ]
            health: list[tuple[int, float]] = []
            health_stop = threading.Event()

            def health_worker() -> None:
                while not health_stop.is_set():
                    try:
                        status, body = _request(port, "GET", "/healthz")
                    except (ConnectionError, http.client.HTTPException, OSError):
                        continue  # hit the dying worker's socket; retry
                    assert body["status"] == "ok"
                    health.append((status, time.time()))
                    time.sleep(0.01)

            health_thread = threading.Thread(target=health_worker)
            for thread in threads:
                thread.start()
            health_thread.start()
            try:
                time.sleep(0.3)
                victim = pool.pids[0]
                killed_at = time.time()
                os.kill(victim, signal.SIGKILL)
                deadline = time.time() + 20
                while time.time() < deadline:
                    pids = pool.pids
                    if len(pids) == 2 and victim not in pids:
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("supervisor never re-forked the killed worker")
                restarted_at = time.time()
                time.sleep(0.3)  # traffic against the healed pool
            finally:
                for thread in threads:
                    thread.stop_event.set()
                health_stop.set()
                for thread in threads:
                    thread.join(timeout=30)
                health_thread.join(timeout=30)

            results = [r for thread in threads for r in thread.results]
            assert results, "traffic threads never completed a request"
            # Every request that reached a worker succeeded — before,
            # during and after the kill; correctness never degraded.
            for status, idx, body, _when in results:
                assert status == 200
                assert (body["item"], body["promo"]) == world["expected_a"][idx]
            # The kill was actually disruptive (connections dropped) and
            # actually survived (traffic kept flowing afterwards).
            after_restart = [
                r for r in results if r[3] >= restarted_at
            ]
            assert after_restart, "no successful traffic after the restart"
            assert health, "health thread never completed a request"
            assert all(status == 200 for status, _ in health)
            assert any(when >= killed_at for _, when in health)

            status, stats = _request(port, "GET", "/stats")
            assert status == 200
            assert stats["pool"]["restarts"] == 1
            assert stats["pool"]["alive"] == 2


class TestHotSwapAcrossPool:
    def test_coordinated_swap_under_load_and_catchup(self, world):
        config = ServeConfig(port=0, max_linger_ms=0.0)
        expected = {1: world["expected_a"]}
        with BackgroundPool(
            world["path_a"],
            config,
            PoolConfig(workers=4, restart_backoff_s=0.05),
        ) as pool:
            port = pool.port
            model = pool.pool.model_names[0]
            threads = [
                _TrafficThread(port, world["payloads"]) for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            try:
                time.sleep(0.3)  # traffic against generation 1
                status, body = _request(
                    port, "POST", "/admin/reload", {"path": world["path_b"]}
                )
                assert status == 200 and body["swapped"] is True
                assert body["generation"] == 2
                # The swap fanned out: all four workers confirmed.
                assert len(body["workers"]) == 4
                assert all(
                    info["generation"] == 2
                    for info in body["workers"].values()
                )
                expected[2] = world["expected_b"]
                time.sleep(0.3)  # traffic against generation 2
            finally:
                for thread in threads:
                    thread.stop_event.set()
                for thread in threads:
                    thread.join(timeout=30)

            results = [r for thread in threads for r in thread.results]
            generations_seen = set()
            for status, idx, body, _when in results:
                assert status == 200
                generation = body["generation"]
                generations_seen.add(generation)
                # Bit-exact match against exactly one generation's model,
                # whichever worker answered.
                assert (body["item"], body["promo"]) == expected[generation][idx]
            assert generations_seen == {1, 2}
            assert _worker_generations(port, model) == [2, 2, 2, 2]

            # A worker killed *after* the swap restarts into the pool's
            # current generation (catch-up sync), never generation 1.
            victim = pool.pids[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.time() + 20
            while time.time() < deadline:
                pids = pool.pids
                if len(pids) == 4 and victim not in pids:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("supervisor never re-forked the killed worker")
            assert _worker_generations(port, model) == [2, 2, 2, 2]
            status, body = _request(
                port, "POST", "/recommend", {"basket": world["payloads"][0]}
            )
            assert status == 200 and body["generation"] == 2
            assert (body["item"], body["promo"]) == world["expected_b"][0]


class TestPoolMtimePolling:
    def test_artifact_overwrite_fans_out_to_all_workers(self, world, tmp_path):
        serving_path = tmp_path / "serving.json"
        serving_path.write_bytes(open(world["path_a"], "rb").read())
        config = ServeConfig(port=0, poll_interval_s=0.05)
        with BackgroundPool(
            str(serving_path), config, PoolConfig(workers=2)
        ) as pool:
            port = pool.port
            model = pool.pool.model_names[0]
            assert _worker_generations(port, model) == [1, 1]
            # Atomically publish model B over the watched path, exactly
            # as a production re-fit would (save_model is temp+replace).
            save_model(load_model(world["path_b"]), serving_path)
            deadline = time.time() + 20
            while time.time() < deadline:
                if _worker_generations(port, model) == [2, 2]:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("mtime poll never swapped every worker")
            status, body = _request(
                port, "POST", "/recommend", {"basket": world["payloads"][0]}
            )
            assert status == 200 and body["generation"] == 2
            assert (body["item"], body["promo"]) == world["expected_b"][0]


class TestPoolAdminErrors:
    def test_failed_pool_reload_keeps_all_workers_serving(self, world):
        config = ServeConfig(port=0)
        with BackgroundPool(
            world["path_a"], config, PoolConfig(workers=2)
        ) as pool:
            port = pool.port
            model = pool.pool.model_names[0]
            status, body = _request(
                port, "POST", "/admin/reload", {"path": "/nonexistent.json"}
            )
            assert status == 500 and body["swapped"] is False
            assert _worker_generations(port, model) == [1, 1]
            status, body = _request(
                port, "POST", "/recommend", {"basket": world["payloads"][0]}
            )
            assert status == 200 and body["generation"] == 1

    def test_unknown_model_rejected_locally(self, world):
        config = ServeConfig(port=0)
        with BackgroundPool(
            world["path_a"], config, PoolConfig(workers=2)
        ) as pool:
            status, body = _request(
                pool.port, "POST", "/admin/reload", {"model": "nope"}
            )
            assert status == 404 and "nope" in body["error"]


class TestPoolInternalErrors:
    def test_internal_errors_sum_across_workers(self, world, monkeypatch):
        """Workers answer unexpected faults with a JSON 500, and the pool's
        /stats sums their ``internal_errors`` counters."""
        from repro.serve import RecommendDaemon

        async def broken_route(self, request):
            raise RuntimeError("boom")

        # Patched before the fork, so every worker inherits the fault.
        monkeypatch.setattr(RecommendDaemon, "_query", broken_route)
        config = ServeConfig(port=0)
        with BackgroundPool(
            world["path_a"], config, PoolConfig(workers=2)
        ) as pool:
            port = pool.port
            n_faults = 12
            for _ in range(n_faults):  # fresh connections spread over workers
                status, body = _request(port, "POST", "/query", {})
                assert status == 500
                assert body == {"error": "internal error: RuntimeError"}
            status, stats = _request(port, "GET", "/stats")
            assert status == 200
            assert stats["counters"]["internal_errors"] == n_faults
            status, body = _request(
                port, "POST", "/recommend", {"basket": world["payloads"][0]}
            )
            assert status == 200
            assert (body["item"], body["promo"]) == world["expected_a"][0]
