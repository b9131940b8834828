"""Unit tests for the serving daemon's pure pieces (HTTP, config, parsing)
and for the micro-batch flush rule, driven on a bare event loop."""

from __future__ import annotations

import asyncio
import contextlib
import json
import statistics
import time

import pytest

from repro.errors import ValidationError
from repro.serve import (
    ModelHandle,
    RecommendDaemon,
    ServeConfig,
    trace_sample_period,
)
from repro.serve.daemon import _parse_basket, _parse_sale
from repro.serve.http import (
    MAX_HEADER_BYTES,
    HeadCache,
    HttpError,
    Request,
    json_response,
    read_request,
    render_response,
)


def parse_bytes(
    raw: bytes, head_cache: HeadCache | None = None
) -> Request | None:
    """Drive :func:`read_request` over an in-memory stream."""

    async def run() -> Request | None:
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, head_cache)

    return asyncio.run(run())


class TestReadRequest:
    def test_parses_post_with_body(self):
        body = b'{"basket": []}'
        raw = (
            b"POST /recommend HTTP/1.1\r\n"
            b"Host: localhost\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        request = parse_bytes(raw)
        assert request is not None
        assert request.method == "POST"
        assert request.path == "/recommend"
        assert request.headers["content-type"] == "application/json"
        assert request.body == body
        assert request.json() == {"basket": []}
        assert request.keep_alive

    def test_get_without_body(self):
        request = parse_bytes(b"GET /healthz HTTP/1.1\r\n\r\n")
        assert request is not None
        assert (request.method, request.path) == ("GET", "/healthz")
        assert request.body == b""
        assert request.json() == {}

    def test_connection_close_header(self):
        request = parse_bytes(
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        assert request is not None
        assert not request.keep_alive

    def test_clean_eof_returns_none(self):
        assert parse_bytes(b"") is None

    def test_truncated_head_raises_400(self):
        with pytest.raises(HttpError) as excinfo:
            parse_bytes(b"GET /healthz HTT")
        assert excinfo.value.status == 400

    def test_malformed_request_line_raises_400(self):
        with pytest.raises(HttpError) as excinfo:
            parse_bytes(b"NONSENSE\r\n\r\n")
        assert excinfo.value.status == 400

    def test_bad_content_length_raises_400(self):
        with pytest.raises(HttpError) as excinfo:
            parse_bytes(b"POST /x HTTP/1.1\r\nContent-Length: pony\r\n\r\n")
        assert excinfo.value.status == 400

    def test_oversized_body_raises_413(self):
        raw = b"POST /x HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n"
        with pytest.raises(HttpError) as excinfo:
            parse_bytes(raw)
        assert excinfo.value.status == 413

    def test_truncated_body_raises_400(self):
        raw = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"
        with pytest.raises(HttpError) as excinfo:
            parse_bytes(raw)
        assert excinfo.value.status == 400

    def test_body_not_json_raises_400(self):
        raw = b"POST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc"
        request = parse_bytes(raw)
        assert request is not None
        with pytest.raises(HttpError) as excinfo:
            request.json()
        assert excinfo.value.status == 400

    def test_oversized_header_block_raises_431(self):
        filler = b"X-Filler: " + b"a" * MAX_HEADER_BYTES + b"\r\n"
        raw = b"GET /healthz HTTP/1.1\r\n" + filler + b"\r\n"
        with pytest.raises(HttpError) as excinfo:
            parse_bytes(raw)
        assert excinfo.value.status == 431

    def test_pipelined_second_request_raises_400(self):
        one = b"GET /healthz HTTP/1.1\r\n\r\n"
        with pytest.raises(HttpError) as excinfo:
            parse_bytes(one + one)  # second request sent before a response
        assert excinfo.value.status == 400
        assert "pipelined" in str(excinfo.value)

    def test_pipelined_bytes_after_body_raise_400(self):
        body = b'{"basket": []}'
        raw = (
            b"POST /recommend HTTP/1.1\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
            + b"GET /stats HTTP/1.1\r\n\r\n"
        )
        with pytest.raises(HttpError) as excinfo:
            parse_bytes(raw)
        assert excinfo.value.status == 400

    def test_sequential_keep_alive_requests_still_parse(self):
        """Back-to-back requests are fine when read one per response."""

        async def run() -> list[Request]:
            reader = asyncio.StreamReader()
            cache = HeadCache()
            head = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            reader.feed_data(head)
            first = await read_request(reader, cache)
            reader.feed_data(head)
            reader.feed_eof()
            second = await read_request(reader, cache)
            assert first is not None and second is not None
            return [first, second]

        first, second = asyncio.run(run())
        assert (first.method, first.path) == ("GET", "/healthz")
        # The second parse was served from the head cache: the exact
        # same headers dict object is reused.
        assert second.headers is first.headers


class TestHeadCache:
    HEAD = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"

    def test_miss_then_hit(self):
        cache = HeadCache()
        assert cache.get(self.HEAD) is None
        request = parse_bytes(self.HEAD, cache)
        assert request is not None
        parsed = cache.get(self.HEAD)
        assert parsed is not None
        assert parsed[:2] == ("GET", "/healthz")
        assert parse_bytes(self.HEAD, cache).headers is parsed[2]

    def test_cached_parse_matches_cold_parse(self):
        cache = HeadCache()
        body = b'{"basket": []}'
        raw = (
            b"POST /recommend HTTP/1.1\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        cold = parse_bytes(raw, cache)
        warm = parse_bytes(raw, cache)
        assert (cold.method, cold.path, cold.headers, cold.body) == (
            warm.method,
            warm.path,
            warm.headers,
            warm.body,
        )

    def test_eviction_keeps_cache_bounded(self):
        cache = HeadCache()
        for i in range(HeadCache.MAX_ENTRIES + 5):
            parse_bytes(f"GET /p{i} HTTP/1.1\r\n\r\n".encode(), cache)
        assert len(cache) == HeadCache.MAX_ENTRIES
        # Insertion-order eviction: the oldest heads are gone, the
        # newest survive.
        assert cache.get(b"GET /p0 HTTP/1.1\r\n\r\n") is None
        assert cache.get(
            f"GET /p{HeadCache.MAX_ENTRIES + 4} HTTP/1.1\r\n\r\n".encode()
        ) is not None


class TestResponses:
    def test_render_response_frames_body(self):
        raw = render_response(200, b"hi", "text/plain", keep_alive=True)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert body == b"hi"
        assert b"HTTP/1.1 200 OK" in head
        assert b"Content-Length: 2" in head
        assert b"Connection: keep-alive" in head

    def test_json_response_round_trips(self):
        raw = json_response(503, {"status": "down"}, keep_alive=False)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"503 Service Unavailable" in head
        assert b"Connection: close" in head
        assert json.loads(body) == {"status": "down"}

    def test_retry_after_header_emitted(self):
        raw = json_response(503, {"error": "full"}, retry_after=1)
        head, _, _body = raw.partition(b"\r\n\r\n")
        assert b"Retry-After: 1" in head
        # And absent when not asked for.
        assert b"Retry-After" not in json_response(503, {"error": "full"})

    def test_cached_head_fragment_matches_cold_render(self):
        # Render twice: the second call reuses the precomputed fragment
        # and must produce byte-identical framing.
        first = render_response(200, b"abc", "application/json", True)
        second = render_response(200, b"xyz", "application/json", True)
        head_1, _, body_1 = first.partition(b"\r\n\r\n")
        head_2, _, body_2 = second.partition(b"\r\n\r\n")
        assert head_1 == head_2
        assert (body_1, body_2) == (b"abc", b"xyz")

    def test_431_reason_phrase(self):
        raw = render_response(431, b"", "application/json", False)
        assert raw.startswith(b"HTTP/1.1 431 Request Header Fields Too Large")


class TestServeConfig:
    def test_defaults_are_valid(self):
        config = ServeConfig()
        assert config.max_batch_size >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch_size": 0},
            {"max_linger_ms": -1.0},
            {"trace_sample_period": -1},
            {"poll_interval_s": -0.5},
            {"max_queue_depth": -1},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValidationError):
            ServeConfig(**kwargs)


class TestTraceSamplePeriod:
    def test_zero_disables(self):
        assert trace_sample_period(0.0) == 0

    def test_one_traces_everything(self):
        assert trace_sample_period(1.0) == 1

    def test_fraction_becomes_stride(self):
        assert trace_sample_period(0.5) == 2
        assert trace_sample_period(0.1) == 10
        assert trace_sample_period(0.001) == 1000

    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    def test_out_of_range_rejected(self, rate):
        with pytest.raises(ValidationError):
            trace_sample_period(rate)


class TestBasketParsing:
    def test_parses_sales_with_aliases_and_default_quantity(self):
        sales = _parse_basket(
            [
                {"item": "Bread", "promo": "P1"},
                {"item_id": "Perfume", "promo_code": "P1", "quantity": 2},
            ]
        )
        assert [(s.item_id, s.promo_code, s.quantity) for s in sales] == [
            ("Bread", "P1", 1.0),
            ("Perfume", "P1", 2.0),
        ]

    def test_empty_basket_allowed(self):
        assert _parse_basket([]) == []

    @pytest.mark.parametrize(
        "entry",
        [
            "not-a-dict",
            {"promo": "P1"},
            {"item": "Bread"},
            {"item": 7, "promo": "P1"},
            {"item": "Bread", "promo": "P1", "quantity": "many"},
            {"item": "Bread", "promo": "P1", "quantity": True},
            {"item": "Bread", "promo": "P1", "quantity": -1},
            {"item": "", "promo": "P1"},
        ],
    )
    def test_malformed_sale_raises_400(self, entry):
        with pytest.raises(HttpError) as excinfo:
            _parse_sale(entry)
        assert excinfo.value.status == 400

    def test_basket_must_be_list(self):
        with pytest.raises(HttpError) as excinfo:
            _parse_basket({"item": "Bread"})
        assert excinfo.value.status == 400


class _RecordingRecommender:
    """Stands in for a recommender: echoes baskets, records batch sizes."""

    name = "recording"

    def __init__(self) -> None:
        self.batches: list[int] = []

    def recommend_many(self, baskets):
        self.batches.append(len(baskets))
        return list(baskets)


@contextlib.asynccontextmanager
async def _batch_worker(max_linger_ms: float, max_batch_size: int = 64):
    """Run one daemon slot's batch worker over a recording recommender.

    The worker task is created but has not run when the body starts, so
    requests enqueued before the body's first ``await`` are already
    queued when the worker wakes.
    """
    recommender = _RecordingRecommender()
    handle = ModelHandle(
        recommender=recommender,
        path="recording.json",
        generation=1,
        mtime_ns=0,
        loaded_at=0.0,
    )
    daemon = RecommendDaemon.from_handles(
        {"recording": handle},
        ServeConfig(
            port=0, max_linger_ms=max_linger_ms, max_batch_size=max_batch_size
        ),
    )
    slot = daemon._slots["recording"]
    slot.queue = asyncio.Queue()
    worker = asyncio.create_task(daemon._batch_worker(slot))
    try:
        yield slot.queue, recommender
    finally:
        worker.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await worker


def _enqueue(queue: asyncio.Queue, basket: str) -> asyncio.Future:
    """Queue one request the way ``/recommend`` does; return its future."""
    future = asyncio.get_running_loop().create_future()
    queue.put_nowait((basket, None, future))
    return future


async def _handler(queue: asyncio.Queue, basket: str, passes: int) -> str:
    """A request handler that reaches the queue after ``passes`` loop
    passes (a handler woken by bytes that already arrived)."""
    for _ in range(passes):
        await asyncio.sleep(0)
    _, result = await _enqueue(queue, basket)
    return result


class TestMicroBatchFlushRule:
    def test_requests_queued_before_the_worker_wakes_flush_together(self):
        async def run():
            async with _batch_worker(max_linger_ms=50.0) as (queue, rec):
                futures = [_enqueue(queue, f"b{i}") for i in range(3)]
                results = await asyncio.gather(*futures)
            return rec.batches, [result for _, result in results]

        batches, results = asyncio.run(run())
        assert batches == [3]
        assert results == ["b0", "b1", "b2"]

    def test_requests_arriving_over_the_next_passes_join_the_batch(self):
        async def run():
            async with _batch_worker(max_linger_ms=50.0) as (queue, rec):
                first = _enqueue(queue, "b0")
                late = [
                    asyncio.create_task(_handler(queue, f"b{n}", n - 1))
                    for n in (1, 2, 3)
                ]
                _, first_result = await first
                late_results = await asyncio.gather(*late)
            return rec.batches, [first_result, *late_results]

        batches, results = asyncio.run(run())
        assert batches == [4]
        assert results == ["b0", "b1", "b2", "b3"]

    def test_a_quiet_pass_flushes_without_waiting_out_the_cap(self):
        async def run():
            async with _batch_worker(max_linger_ms=50.0) as (queue, rec):
                first = _enqueue(queue, "b0")

                async def after_a_pause():
                    await asyncio.sleep(0.005)  # well inside the 50 ms cap
                    return await _enqueue(queue, "b1")

                await asyncio.gather(first, after_a_pause())
            return rec.batches

        assert asyncio.run(run()) == [1, 1]

    def test_sequential_single_client_does_not_wait_for_the_cap(self):
        async def run():
            latencies_ms = []
            async with _batch_worker(max_linger_ms=50.0) as (queue, rec):
                for i in range(21):
                    started = time.perf_counter()
                    await _enqueue(queue, f"b{i}")
                    latencies_ms.append(
                        (time.perf_counter() - started) * 1000.0
                    )
            return rec.batches, latencies_ms

        batches, latencies_ms = asyncio.run(run())
        assert batches == [1] * 21
        assert statistics.median(latencies_ms) < 10.0

    def test_zero_linger_takes_only_what_is_already_queued(self):
        async def run():
            async with _batch_worker(max_linger_ms=0.0) as (queue, rec):
                queued = [_enqueue(queue, "b0"), _enqueue(queue, "b1")]
                late = asyncio.create_task(_handler(queue, "b2", 0))
                await asyncio.gather(*queued, late)
            return rec.batches

        assert asyncio.run(run()) == [2, 1]

    def test_batch_size_caps_a_flush(self):
        async def run():
            async with _batch_worker(50.0, max_batch_size=2) as (queue, rec):
                await asyncio.gather(
                    *[_enqueue(queue, f"b{i}") for i in range(5)]
                )
            return rec.batches

        assert asyncio.run(run()) == [2, 2, 1]

    def test_linger_caps_a_batch_under_a_steady_stream(self):
        """A request every pass keeps the batch open only up to the cap."""

        async def run():
            async with _batch_worker(max_linger_ms=2.0) as (queue, rec):
                futures = [_enqueue(queue, "b0")]
                for i in range(1, 20):
                    await asyncio.sleep(0)
                    time.sleep(0.001)  # each pass costs >= 1 ms
                    futures.append(_enqueue(queue, f"b{i}"))
                await asyncio.gather(*futures)
            return rec.batches

        batches = asyncio.run(run())
        assert sum(batches) == 20
        assert len(batches) > 1
        assert max(batches) <= 4
