"""End-to-end daemon test: concurrent traffic across a live hot-swap.

Starts the real asyncio server in-process (``BackgroundDaemon``), fires
concurrent clients at it — single-basket ``/recommend`` (micro-batched
server-side) and client-batched ``/recommend_batch`` — swaps to a
structurally different model mid-traffic via ``POST /admin/reload``, and
asserts that every response is valid JSON matching either the old
model's or the new model's output bit-exactly (never a mix within one
response), while ``/healthz`` answers 200 throughout.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro.core.miner import ProfitMiner, ProfitMinerConfig
from repro.core.mining import MinerConfig
from repro.data.datasets import build_dataset, dataset_i_config
from repro.data.model_io import load_model, save_model
from repro.serve import BackgroundDaemon, ServeConfig


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Two structurally different artifacts plus their expected outputs."""
    root = tmp_path_factory.mktemp("serve_models")
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

    baskets = [t.nontarget_sales for t in dataset.db.transactions[:40]]
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
    # The swap must be observable: the models must disagree somewhere.
    assert expected_a != expected_b
    return {
        "path_a": str(path_a),
        "path_b": str(path_b),
        "payloads": payloads,
        "expected_a": expected_a,
        "expected_b": expected_b,
    }


def _request(port: int, method: str, path: str, payload=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestHotSwapUnderTraffic:
    def test_no_failed_or_mixed_responses_during_reload(self, world):
        payloads = world["payloads"]
        expected = {1: world["expected_a"]}  # generation -> expected picks
        config = ServeConfig(port=0, max_batch_size=16, max_linger_ms=0.5)
        results: list[tuple[str, object]] = []
        results_lock = threading.Lock()
        stop = threading.Event()

        def single_worker():
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            index = 0
            try:
                while not stop.is_set():
                    idx = index % len(payloads)
                    index += 1
                    conn.request(
                        "POST",
                        "/recommend",
                        body=json.dumps({"basket": payloads[idx]}),
                    )
                    response = conn.getresponse()
                    body = json.loads(response.read())
                    with results_lock:
                        results.append(("single", (response.status, idx, body)))
            finally:
                conn.close()

        def batch_worker():
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                while not stop.is_set():
                    conn.request(
                        "POST",
                        "/recommend_batch",
                        body=json.dumps({"baskets": payloads}),
                    )
                    response = conn.getresponse()
                    body = json.loads(response.read())
                    with results_lock:
                        results.append(("batch", (response.status, body)))
            finally:
                conn.close()

        def health_worker():
            while not stop.is_set():
                status, body = _request(port, "GET", "/healthz")
                with results_lock:
                    results.append(("health", (status, body)))
                time.sleep(0.01)

        with BackgroundDaemon(world["path_a"], config) as daemon:
            port = daemon.port
            threads = [
                threading.Thread(target=single_worker),
                threading.Thread(target=single_worker),
                threading.Thread(target=batch_worker),
                threading.Thread(target=health_worker),
            ]
            for thread in threads:
                thread.start()
            try:
                time.sleep(0.4)  # traffic against the old model
                status, body = _request(
                    port, "POST", "/admin/reload", {"path": world["path_b"]}
                )
                assert status == 200 and body["swapped"] is True
                expected[body["generation"]] = world["expected_b"]
                time.sleep(0.4)  # traffic against the new model
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=10)

        generations_seen = set()
        singles = batches = healths = 0
        for kind, entry in results:
            if kind == "health":
                status, body = entry
                assert status == 200 and body["status"] == "ok"
                healths += 1
                continue
            if kind == "single":
                status, idx, body = entry
                assert status == 200
                generation = body["generation"]
                generations_seen.add(generation)
                # Bit-exact match against exactly the generation's model.
                assert (body["item"], body["promo"]) == expected[generation][idx]
                singles += 1
            else:
                status, body = entry
                assert status == 200
                generation = body["generation"]
                generations_seen.add(generation)
                got = [
                    (r["item"], r["promo"]) for r in body["recommendations"]
                ]
                # The whole batch is served by one model — never a mix.
                assert got == expected[generation]
                batches += 1
        assert singles > 0 and batches > 0 and healths > 0
        # The swap actually happened mid-traffic: both models answered.
        assert generations_seen == {1, 2}

    def test_reload_failure_keeps_old_model_serving(self, world, tmp_path):
        config = ServeConfig(port=0)
        with BackgroundDaemon(world["path_a"], config) as daemon:
            port = daemon.port
            status, body = _request(
                port, "POST", "/admin/reload", {"path": "/nonexistent.json"}
            )
            assert status == 500 and body["swapped"] is False

            garbage = tmp_path / "garbage.json"
            garbage.write_text("{truncated", encoding="utf-8")
            status, body = _request(
                port, "POST", "/admin/reload", {"path": str(garbage)}
            )
            assert status == 500 and body["swapped"] is False

            status, body = _request(port, "GET", "/healthz")
            assert status == 200 and body["generation"] == 1
            status, body = _request(
                port, "POST", "/recommend", {"basket": world["payloads"][0]}
            )
            assert status == 200
            assert (body["item"], body["promo"]) == world["expected_a"][0]


class TestMtimePollingSwap:
    def test_artifact_overwrite_triggers_hot_swap(self, world, tmp_path):
        serving_path = tmp_path / "serving.json"
        serving_path.write_bytes(
            open(world["path_a"], "rb").read()
        )
        config = ServeConfig(port=0, poll_interval_s=0.05)
        with BackgroundDaemon(str(serving_path), config) as daemon:
            port = daemon.port
            status, body = _request(port, "GET", "/healthz")
            assert status == 200 and body["generation"] == 1
            # Atomically publish model B over the watched path, exactly
            # as a production re-fit would (save_model is temp+replace).
            save_model(load_model(world["path_b"]), serving_path)
            deadline = time.time() + 10
            while time.time() < deadline:
                status, body = _request(port, "GET", "/healthz")
                assert status == 200
                if body["generation"] >= 2:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("mtime poller never hot-swapped the new artifact")
            status, body = _request(
                port, "POST", "/recommend", {"basket": world["payloads"][0]}
            )
            assert status == 200
            assert (body["item"], body["promo"]) == world["expected_b"][0]


class TestStatsEndpoint:
    def test_stats_exposes_counters_and_sampled_trace(self, world):
        config = ServeConfig(port=0, trace_sample_period=1)
        with BackgroundDaemon(world["path_a"], config) as daemon:
            port = daemon.port
            for payload in world["payloads"][:5]:
                status, _ = _request(
                    port, "POST", "/recommend", {"basket": payload}
                )
                assert status == 200
            status, _ = _request(
                port,
                "POST",
                "/recommend_batch",
                {"baskets": world["payloads"][:10]},
            )
            assert status == 200
            status, stats = _request(port, "GET", "/stats")
        assert status == 200
        counters = stats["counters"]
        assert counters["recommend_requests"] == 5
        assert counters["batch_requests"] == 1
        assert counters["baskets_served"] == 15
        assert counters["errors"] == 0
        # Every serve call was sampled, so the obs-layer counters and the
        # basket-memo telemetry surface in the merged trace.
        assert stats["trace"]["counters"]["serve.baskets"] == 15
        assert "serve.basket_memo" in stats["trace"]["caches"]
        assert stats["n_rules"] > 0
        assert stats["config"]["trace_sample_period"] == 1

    def test_unknown_path_and_bad_body_are_counted_errors(self, world):
        config = ServeConfig(port=0)
        with BackgroundDaemon(world["path_a"], config) as daemon:
            port = daemon.port
            status, _ = _request(port, "GET", "/nope")
            assert status == 404
            status, _ = _request(port, "POST", "/recommend", {"nonsense": 1})
            assert status == 400
            status, _ = _request(port, "GET", "/recommend")
            assert status == 405
            status, body = _request(
                port,
                "POST",
                "/recommend",
                {"basket": [{"item": "NoSuchItem", "promo": "P1"}]},
            )
            assert status == 400 and "NoSuchItem" in body["error"]
            status, stats = _request(port, "GET", "/stats")
        assert status == 200
        assert stats["counters"]["errors"] == 4


    def test_unexpected_exception_answers_json_500_and_closes(
        self, world, monkeypatch
    ):
        """A fault outside the project's error types still gets an answer."""
        from repro.serve import RecommendDaemon

        async def broken_route(self, request):
            raise RuntimeError("boom")

        monkeypatch.setattr(RecommendDaemon, "_query", broken_route)
        config = ServeConfig(port=0)
        with BackgroundDaemon(world["path_a"], config) as daemon:
            port = daemon.port
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                conn.request("POST", "/query", body="{}")
                response = conn.getresponse()
                body = json.loads(response.read())
                assert response.status == 500
                assert response.getheader("Connection") == "close"
                assert body == {"error": "internal error: RuntimeError"}
                # The daemon closed this connection; http.client reopens.
                conn.request(
                    "POST",
                    "/recommend",
                    body=json.dumps({"basket": world["payloads"][0]}),
                )
                response = conn.getresponse()
                body = json.loads(response.read())
                assert response.status == 200
                assert (body["item"], body["promo"]) == world["expected_a"][0]
            finally:
                conn.close()
            status, stats = _request(port, "GET", "/stats")
        assert status == 200
        assert stats["counters"]["internal_errors"] == 1
        assert stats["counters"]["errors"] == 1


async def _read_response(reader) -> tuple[int, dict]:
    """One HTTP/1.1 JSON response off an asyncio stream."""
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return status, json.loads(await reader.readexactly(length))


class TestMicroBatchCoalescing:
    def test_concurrent_requests_share_batches(self, world):
        """Requests whose bytes arrive together are served in one flush.

        Every connection is opened and parked first, then each sends one
        ``/recommend`` before any response is read, so the daemon sees
        all of them readable in the same event-loop pass.
        """
        import asyncio

        from repro.serve import RecommendDaemon

        n_clients = 16

        async def run() -> dict:
            daemon = RecommendDaemon(world["path_a"], ServeConfig(port=0))
            await daemon.start()
            try:
                streams = [
                    await asyncio.open_connection("127.0.0.1", daemon.port)
                    for _ in range(n_clients)
                ]
                for reader, writer in streams:  # park every handler
                    writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
                    assert (await _read_response(reader))[0] == 200
                for index, (_, writer) in enumerate(streams):
                    body = json.dumps(
                        {"basket": world["payloads"][index]}
                    ).encode()
                    writer.write(
                        b"POST /recommend HTTP/1.1\r\n"
                        + b"Content-Length: %d\r\n\r\n" % len(body)
                        + body
                    )
                for index, (reader, writer) in enumerate(streams):
                    status, body = await _read_response(reader)
                    assert status == 200
                    assert (body["item"], body["promo"]) == (
                        world["expected_a"][index]
                    )
                    writer.close()
                return daemon.stats_payload()["counters"]
            finally:
                await daemon.stop()

        counters = asyncio.run(run())
        assert counters["recommend_requests"] == n_clients
        assert counters["batches_flushed"] < counters["recommend_requests"]


class TestMultiModelTenancy:
    def test_routing_stats_and_per_model_reload(self, world):
        config = ServeConfig(port=0, max_linger_ms=0.0)
        models = [("prod", world["path_a"]), ("canary", world["path_b"])]
        with BackgroundDaemon(models, config) as daemon:
            port = daemon.port
            # One shared world: both artifacts describe the same dataset.
            assert len(daemon.daemon.worlds) == 1
            prod = daemon.daemon._slots["prod"].handle.recommender
            canary = daemon.daemon._slots["canary"].handle.recommender
            assert prod.compiled.symbols is canary.compiled.symbols

            # Unrouted traffic goes to the default (first) model ...
            status, body = _request(
                port, "POST", "/recommend", {"basket": world["payloads"][0]}
            )
            assert status == 200
            assert (body["item"], body["promo"]) == world["expected_a"][0]
            # ... while "model" routes each basket to its slot.
            for name, expected in [
                ("prod", world["expected_a"]),
                ("canary", world["expected_b"]),
            ]:
                for idx in range(3):
                    status, body = _request(
                        port,
                        "POST",
                        "/recommend",
                        {"basket": world["payloads"][idx], "model": name},
                    )
                    assert status == 200
                    assert (body["item"], body["promo"]) == expected[idx]
                status, body = _request(
                    port,
                    "POST",
                    "/recommend_batch",
                    {"baskets": world["payloads"], "model": name},
                )
                assert status == 200
                got = [(r["item"], r["promo"]) for r in body["recommendations"]]
                assert got == expected

            status, body = _request(
                port,
                "POST",
                "/recommend",
                {"basket": world["payloads"][0], "model": "nope"},
            )
            assert status == 404 and "nope" in body["error"]

            # /healthz and /stats expose every resident model, with the
            # top-level keys still describing the default one.
            status, body = _request(port, "GET", "/healthz")
            assert status == 200
            assert body["models"] == {"prod": 1, "canary": 1}
            status, stats = _request(port, "GET", "/stats")
            assert status == 200
            assert set(stats["models"]) == {"prod", "canary"}
            assert stats["worlds"] == 1
            assert stats["n_rules"] == stats["models"]["prod"]["n_rules"]
            for info in stats["models"].values():
                assert sum(info["shapes"].values()) == info["n_rules"]
                assert info["store_bytes"] > 0

            # A reload of one slot leaves the other's generation alone.
            status, body = _request(
                port,
                "POST",
                "/admin/reload",
                {"model": "canary", "path": world["path_a"]},
            )
            assert status == 200 and body["swapped"] is True
            status, body = _request(port, "GET", "/healthz")
            assert body["models"] == {"prod": 1, "canary": 2}
            status, body = _request(
                port,
                "POST",
                "/recommend",
                {"basket": world["payloads"][0], "model": "canary"},
            )
            assert status == 200
            assert (body["item"], body["promo"]) == world["expected_a"][0]

    def test_duplicate_names_are_rejected(self, world):
        from repro.errors import ValidationError
        from repro.serve import RecommendDaemon

        with pytest.raises(ValidationError, match="duplicate model name"):
            RecommendDaemon(
                [("m", world["path_a"]), ("m", world["path_b"])],
                ServeConfig(port=0),
            )


class TestBackpressure:
    def test_full_queue_answers_503_with_retry_after(self, world):
        """Saturating the micro-batch queue sheds load instead of queueing.

        Deterministic setup: freeze the batch worker so the queue cannot
        drain, fill it to ``max_queue_depth``, then drive one real HTTP
        request — it must get a clean 503 with a ``Retry-After`` header,
        and the drop must show up in the stats counters.
        """
        import asyncio

        from repro.serve import RecommendDaemon

        async def run() -> None:
            daemon = RecommendDaemon(
                world["path_a"], ServeConfig(port=0, max_queue_depth=2)
            )
            await daemon.start()
            try:
                slot = daemon._slots[daemon._default_name]
                slot.worker.cancel()  # freeze the consumer
                loop = asyncio.get_running_loop()
                for _ in range(2):  # fill the queue to its cap
                    await slot.queue.put(([], loop.create_future()))

                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", daemon.port
                )
                body = json.dumps({"basket": world["payloads"][0]}).encode()
                writer.write(
                    b"POST /recommend HTTP/1.1\r\n"
                    b"Connection: close\r\n"
                    + b"Content-Length: %d\r\n\r\n" % len(body)
                    + body
                )
                await writer.drain()
                raw = await reader.read(-1)
                writer.close()
                head, _, payload = raw.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 503 Service Unavailable")
                assert b"Retry-After: 1" in head
                assert "queue is full" in json.loads(payload)["error"]
                stats = daemon.stats_payload()
                assert stats["counters"]["rejected_requests"] == 1
                assert stats["counters"]["errors"] == 1
                assert stats["config"]["max_queue_depth"] == 2
            finally:
                await daemon.stop()

        asyncio.run(run())

    def test_zero_depth_disables_the_cap(self, world):
        """``max_queue_depth=0`` keeps the old unbounded behavior."""
        config = ServeConfig(port=0, max_queue_depth=0)
        with BackgroundDaemon(world["path_a"], config) as daemon:
            port = daemon.port
            status, body = _request(
                port, "POST", "/recommend", {"basket": world["payloads"][0]}
            )
            assert status == 200
            assert (body["item"], body["promo"]) == world["expected_a"][0]


@pytest.fixture(scope="module")
def shared_port(world):
    """One default-config daemon shared by the validation tests."""
    with BackgroundDaemon(world["path_a"], ServeConfig(port=0)) as daemon:
        yield daemon.port


class TestQueryEndpoint:
    def test_query_matches_library_answer(self, world):
        config = ServeConfig(port=0)
        with BackgroundDaemon(world["path_a"], config) as daemon:
            port = daemon.port
            status, body = _request(
                port, "POST", "/query", {"shape": "concept", "top": 10}
            )
            assert status == 200
            expected = load_model(world["path_a"]).query_rules(
                shape="concept", top=10
            )
            assert body["n"] == len(expected)
            assert body["hits"] == [hit.to_dict() for hit in expected]
            assert body["generation"] == 1

            status, stats = _request(port, "GET", "/stats")
            assert stats["counters"]["query_requests"] == 1

    def test_query_validates_fields_and_model(self, world):
        config = ServeConfig(port=0)
        with BackgroundDaemon(world["path_a"], config) as daemon:
            port = daemon.port
            status, body = _request(port, "POST", "/query", {"bogus": 1})
            assert status == 400 and "bogus" in body["error"]
            status, body = _request(
                port, "POST", "/query", {"shape": "galaxy"}
            )
            assert status == 400
            status, body = _request(
                port, "POST", "/query", {"model": "nope"}
            )
            assert status == 404
            status, body = _request(port, "GET", "/query")
            assert status == 405
            # Failed queries never crash serving.
            status, _ = _request(
                port, "POST", "/recommend", {"basket": world["payloads"][0]}
            )
            assert status == 200

    @pytest.mark.parametrize(
        "field, value, expected",
        [
            ("top", "x", "'top' must be an integer, got string"),
            ("top", True, "'top' must be an integer, got boolean"),
            ("top", 2.5, "'top' must be an integer, got number"),
            ("min_conf", "high", "'min_conf' must be a number, got string"),
            ("min_support", False, "'min_support' must be a number"),
            ("shape", 3, "'shape' must be a string, got number"),
            ("head_promo", ["P1"], "'head_promo' must be a string, got array"),
            ("head_item", {}, "'head_item' must be a string, got object"),
            ("head_under", 1.0, "'head_under' must be a string"),
            ("body_mentions", "A", "'body_mentions' must be an array"),
            (
                "body_mentions",
                ["A", 1],
                "'body_mentions' must be an array of strings, got number",
            ),
        ],
    )
    def test_query_rejects_wrong_field_types(
        self, shared_port, field, value, expected
    ):
        status, body = _request(shared_port, "POST", "/query", {field: value})
        assert status == 400
        assert body["error"].startswith(expected)

    def test_query_routes_per_model(self, world):
        config = ServeConfig(port=0)
        models = {"a": world["path_a"], "b": world["path_b"]}
        with BackgroundDaemon(models, config) as daemon:
            port = daemon.port
            counts = {}
            for name, path in models.items():
                status, body = _request(
                    port, "POST", "/query", {"model": name}
                )
                assert status == 200
                counts[name] = body["n"]
                assert body["n"] == len(load_model(path).query_rules())
            # The two artifacts are structurally different models.
            assert counts["a"] != counts["b"]


class TestTopKServing:
    def test_single_and_batch_k_match_library(self, world):
        from repro.core.sales import Sale

        config = ServeConfig(port=0, max_linger_ms=0.0)
        recommender = load_model(world["path_a"])
        payloads = world["payloads"][:10]
        baskets = [
            [Sale(s["item"], s["promo"], s["quantity"]) for s in payload]
            for payload in payloads
        ]
        expected = [
            [(r.item_id, r.promo_code) for r in ranked]
            for ranked in recommender.recommend_top_k_many(baskets, 3)
        ]
        with BackgroundDaemon(world["path_a"], config) as daemon:
            port = daemon.port
            for payload, ranked in zip(payloads, expected):
                status, body = _request(
                    port, "POST", "/recommend", {"basket": payload, "k": 3}
                )
                assert status == 200
                assert body["k"] == 3
                assert [
                    (offer["item"], offer["promo"]) for offer in body["offers"]
                ] == ranked
                assert body["generation"] == 1
            status, body = _request(
                port,
                "POST",
                "/recommend_batch",
                {"baskets": payloads, "k": 3},
            )
            assert status == 200
            assert [
                [(offer["item"], offer["promo"]) for offer in ranked]
                for ranked in body["offers"]
            ] == expected

            status, stats = _request(port, "GET", "/stats")
            assert stats["counters"]["topk_requests"] == len(payloads) + 1

    def test_k_eq_1_offers_match_plain_recommendation(self, world):
        config = ServeConfig(port=0, max_linger_ms=0.0)
        with BackgroundDaemon(world["path_a"], config) as daemon:
            port = daemon.port
            payload = world["payloads"][0]
            status, plain = _request(
                port, "POST", "/recommend", {"basket": payload}
            )
            assert status == 200 and "offers" not in plain
            status, ranked = _request(
                port, "POST", "/recommend", {"basket": payload, "k": 1}
            )
            assert status == 200
            assert ranked["offers"][0] == {
                "item": plain["item"],
                "promo": plain["promo"],
            }

    def test_k_validation(self, world):
        config = ServeConfig(port=0)
        with BackgroundDaemon(world["path_a"], config) as daemon:
            port = daemon.port
            for bad_k in (0, -1, True, 1.5, "2"):
                status, body = _request(
                    port,
                    "POST",
                    "/recommend",
                    {"basket": world["payloads"][0], "k": bad_k},
                )
                assert status == 400 and "'k'" in body["error"]
                status, body = _request(
                    port,
                    "POST",
                    "/recommend_batch",
                    {"baskets": [world["payloads"][0]], "k": bad_k},
                )
                assert status == 400 and "'k'" in body["error"]

    def test_mixed_k_microbatch(self, world):
        """Concurrent waiters at different k coalesce without cross-talk."""
        config = ServeConfig(port=0, max_batch_size=32, max_linger_ms=5.0)
        payloads = world["payloads"][:8]
        with BackgroundDaemon(world["path_a"], config) as daemon:
            port = daemon.port
            results = {}
            lock = threading.Lock()

            def call(idx, k):
                body = {"basket": payloads[idx]}
                if k is not None:
                    body["k"] = k
                outcome = _request(port, "POST", "/recommend", body)
                with lock:
                    results[(idx, k)] = outcome

            jobs = [
                (idx, k)
                for idx in range(len(payloads))
                for k in (None, 1, 2)
            ]
            threads = [
                threading.Thread(target=call, args=job) for job in jobs
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for (idx, k), (status, body) in results.items():
                assert status == 200
                single = world["expected_a"][idx]
                if k is None:
                    assert (body["item"], body["promo"]) == single
                else:
                    assert len(body["offers"]) <= k
                    first = body["offers"][0]
                    assert (first["item"], first["promo"]) == single


class TestPlanEndpoint:
    def test_plan_matches_library_answer(self, world):
        from repro.campaign import plan_campaign
        from repro.core.sales import Sale

        config = ServeConfig(port=0)
        payloads = world["payloads"]
        baskets = [
            [Sale(s["item"], s["promo"], s["quantity"]) for s in payload]
            for payload in payloads
        ]
        expected = plan_campaign(
            load_model(world["path_a"]), baskets, max_offers=2
        )
        with BackgroundDaemon(world["path_a"], config) as daemon:
            port = daemon.port
            status, body = _request(
                port,
                "POST",
                "/plan",
                {"baskets": payloads, "max_offers": 2},
            )
            assert status == 200
            assert body["method"] == expected.method
            assert body["expected_profit"] == pytest.approx(
                expected.expected_profit
            )
            assert [
                (offer["item"], offer["promo"]) for offer in body["offers"]
            ] == [
                (offer.item_id, offer.promo_code) for offer in expected.offers
            ]
            assert body["generation"] == 1

            status, stats = _request(port, "GET", "/stats")
            assert stats["counters"]["plan_requests"] == 1

    def test_plan_validates_fields(self, world):
        config = ServeConfig(port=0)
        with BackgroundDaemon(world["path_a"], config) as daemon:
            port = daemon.port
            status, body = _request(port, "POST", "/plan", {"bogus": 1})
            assert status == 400
            status, body = _request(
                port,
                "POST",
                "/plan",
                {"baskets": world["payloads"], "surprise": 1},
            )
            assert status == 400 and "surprise" in body["error"]
            status, body = _request(
                port, "POST", "/plan", {"baskets": [], "max_offers": 1}
            )
            assert status == 400  # planner rejects an empty workload
            status, body = _request(
                port,
                "POST",
                "/plan",
                {"baskets": world["payloads"], "method": "magic"},
            )
            assert status == 400 and "method" in body["error"]
            status, body = _request(
                port,
                "POST",
                "/plan",
                {"baskets": world["payloads"], "inventory": [1, 2]},
            )
            assert status == 400 and "inventory" in body["error"]
            # Failed plans never crash serving.
            status, _ = _request(
                port, "POST", "/recommend", {"basket": world["payloads"][0]}
            )
            assert status == 200

    @pytest.mark.parametrize(
        "field, value, expected",
        [
            ("baskets", "x", "'baskets' must be an array, got string"),
            ("baskets", None, "'baskets' must be an array, got null"),
            ("max_offers", "3", "'max_offers' must be an integer, got string"),
            ("max_offers", True, "'max_offers' must be an integer, got boolean"),
            ("max_offers", 1.5, "'max_offers' must be an integer, got number"),
            ("budget", "10", "'budget' must be a number, got string"),
            ("budget", True, "'budget' must be a number, got boolean"),
            ("offer_cost", [1], "'offer_cost' must be a number, got array"),
            ("inventory", [1, 2], "'inventory' must be an object, got array"),
            (
                "inventory",
                {"I1": "5"},
                "'inventory' must be an object of item: units, got string",
            ),
            (
                "inventory",
                {"I1": False},
                "'inventory' must be an object of item: units, got boolean",
            ),
            ("method", 1, "'method' must be a string, got number"),
        ],
    )
    def test_plan_rejects_wrong_field_types(
        self, world, shared_port, field, value, expected
    ):
        payload = {"baskets": world["payloads"][:5], field: value}
        status, body = _request(shared_port, "POST", "/plan", payload)
        assert status == 400
        assert body["error"] == expected

    def test_plan_null_fields_mean_absent(self, world, shared_port):
        payload = {
            "baskets": world["payloads"][:5],
            "max_offers": 2,
            "budget": None,
            "offer_cost": None,
            "inventory": None,
            "method": None,
        }
        status, body = _request(shared_port, "POST", "/plan", payload)
        assert status == 200
        status, expected = _request(
            shared_port,
            "POST",
            "/plan",
            {"baskets": world["payloads"][:5], "max_offers": 2},
        )
        assert status == 200
        assert body == expected
