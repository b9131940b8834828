"""The always-on recommendation daemon: batching, hot-swap, telemetry.

This is the first consumer of the compiled engine that serves *traffic*
rather than scripts: a long-lived asyncio process answering JSON basket
requests from a :class:`~repro.core.mpf.MPFRecommender` restored from a
persisted model artifact.  Three mechanisms make it production-shaped
while staying dependency-free:

* **Micro-batching** — concurrent single-basket ``POST /recommend``
  requests are queued and coalesced into one
  :meth:`~repro.core.mpf.MPFRecommender.recommend_many` call (at most
  ``max_batch_size`` baskets), so a storm of small requests is served at
  batch cost.  The batch worker yields to the event loop only while each
  pass brings more requests, so ``max_linger_ms`` is a cap, used only
  while more requests keep arriving: a lone request is answered at once.
  ``POST /recommend_batch`` bypasses the queue: the client already
  batched.

* **Zero-downtime hot-swap** — :meth:`RecommendDaemon.reload` loads a
  new artifact with :func:`~repro.data.model_io.load_model` in a worker
  thread, validates it with a probe recommendation, then atomically
  replaces the serving reference.  Serving code reads the reference once
  per batch, so every response is computed entirely on one model;
  in-flight requests finish on the model they started with and no
  request ever observes a half-loaded one.  Swaps are triggered by
  ``POST /admin/reload`` or by mtime polling of the artifact
  (``poll_interval_s``), which pairs with ``save_model``'s atomic
  temp-file + ``os.replace`` write: the poller can never read a
  truncated document.

* **Per-request trace sampling** — every ``trace_sample_period``-th
  serve call runs under a fresh :class:`repro.obs.Trace`; its counters
  and cache telemetry are merged into a daemon-lifetime trace that
  ``GET /stats`` exposes alongside the raw request counters, so the
  basket-memo hit rate and postings-scan footprint of live traffic are
  one curl away.

* **Multi-model tenancy** — one daemon serves N resident models, each
  its own generation-stamped slot with a private micro-batching queue.
  Requests route by the JSON ``"model"`` field (the first model is the
  default); every slot loads through one shared
  :class:`~repro.data.model_io.WorldCache`, so models mined over the
  same world share a single interned symbol universe.  ``POST /query``
  answers rule-audit queries from each model's shape-split columnar
  store.
"""

from __future__ import annotations

import asyncio
import logging
import os
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.campaign import plan_campaign
from repro.core.mpf import MPFRecommender
from repro.core.recommender import Recommendation
from repro.core.sales import Sale
from repro.data.model_io import WorldCache, load_model
from repro.errors import CatalogError, ProfitMiningError, ValidationError
from repro.obs import trace as obs
from repro.serve.http import (
    HeadCache,
    HttpError,
    Request,
    json_response,
    read_request,
)

_log = logging.getLogger(__name__)

__all__ = [
    "ServeConfig",
    "ModelHandle",
    "RecommendDaemon",
    "BackgroundDaemon",
    "trace_sample_period",
]


def trace_sample_period(rate: float) -> int:
    """Convert a sampling *rate* (fraction of serve calls traced) into the
    deterministic every-Nth period :class:`ServeConfig` carries.

    Deterministic striding instead of coin flips keeps the daemon's
    telemetry reproducible under test traffic; ``rate=0`` disables
    sampling, any rate ≥ 1 traces every call.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValidationError(
            f"trace sample rate must be within [0, 1], got {rate}"
        )
    if rate == 0.0:
        return 0
    return max(1, round(1.0 / rate))


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one daemon instance."""

    host: str = "127.0.0.1"
    port: int = 8321
    #: Largest number of queued single-basket requests coalesced into one
    #: ``recommend_many`` call.
    max_batch_size: int = 64
    #: Upper bound (milliseconds) on how long a batch stays open for
    #: company.  It is a cap, used only while more requests keep arriving:
    #: the batch flushes as soon as an event-loop pass adds no request, so
    #: a lone request never waits it out.  0 disables lingering (each
    #: flush takes whatever is already queued).
    max_linger_ms: float = 1.0
    #: Trace every Nth serve call into the daemon-lifetime trace exposed
    #: by ``/stats``; 0 disables sampling.  The CLI converts its
    #: ``--trace-sample-rate`` fraction into this period.
    trace_sample_period: int = 0
    #: Seconds between artifact mtime checks for automatic hot-swap;
    #: 0 disables polling (reloads happen only via ``POST /admin/reload``).
    poll_interval_s: float = 0.0
    #: Largest number of single-basket requests allowed to wait in one
    #: model's micro-batch queue.  Beyond it the daemon answers 503 with
    #: a ``Retry-After`` header instead of letting the queue (and every
    #: queued request's latency) grow without bound under overload.
    #: 0 disables the cap.
    max_queue_depth: int = 1024
    #: Bind the listening socket with ``SO_REUSEPORT`` so several
    #: processes (the pre-fork pool of :mod:`repro.serve.pool`) can
    #: share one port and let the kernel balance connections.
    reuse_port: bool = False

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValidationError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_linger_ms < 0:
            raise ValidationError(
                f"max_linger_ms must be >= 0, got {self.max_linger_ms}"
            )
        if self.trace_sample_period < 0:
            raise ValidationError(
                f"trace_sample_period must be >= 0, got "
                f"{self.trace_sample_period}"
            )
        if self.poll_interval_s < 0:
            raise ValidationError(
                f"poll_interval_s must be >= 0, got {self.poll_interval_s}"
            )
        if self.max_queue_depth < 0:
            raise ValidationError(
                f"max_queue_depth must be >= 0, got {self.max_queue_depth}"
            )


@dataclass(frozen=True)
class ModelHandle:
    """One immutable serving generation: a recommender plus provenance.

    The daemon swaps whole handles, never mutates one — that immutability
    is what makes the hot-swap safe: a request that captured a handle
    keeps a consistent (recommender, generation, name) triple for its
    entire lifetime regardless of concurrent swaps.
    """

    recommender: MPFRecommender
    path: str
    generation: int
    mtime_ns: int
    loaded_at: float

    def info(self) -> dict[str, Any]:
        """JSON-ready provenance block used by /healthz, /stats, reload."""
        return {
            "model": self.recommender.name,
            "generation": self.generation,
            "path": self.path,
            **self.recommender.rule_index.stats(),
        }


def _load_handle(
    path: str, generation: int, worlds: WorldCache | None = None
) -> ModelHandle:
    """Load + validate one artifact into a ready-to-serve handle.

    Runs in a worker thread during hot-swap.  The probe recommendation
    both validates the artifact end-to-end (exactly one default rule,
    postings consistent) and forces the lazy serving index, so the swap
    installs a warm model and the first post-swap request pays nothing.
    ``worlds`` is the daemon's shared :class:`WorldCache`: every resident
    model describing the same (catalog, hierarchy, MOA) world shares one
    engine and one interned symbol universe.
    """
    mtime_ns = os.stat(path).st_mtime_ns
    recommender = load_model(path, worlds=worlds)
    probe = recommender.recommend([])
    if not probe.item_id:  # pragma: no cover - defensive, load validates
        raise ValidationError(f"{path}: probe recommendation is empty")
    return ModelHandle(
        recommender=recommender,
        path=str(path),
        generation=generation,
        mtime_ns=mtime_ns,
        loaded_at=time.time(),
    )


class _ModelSlot:
    """One resident model: its current handle plus a private batch queue.

    The slot object itself is stable for the daemon's lifetime — routing
    tables and worker tasks point at slots — while ``handle`` is the
    atomically-swapped serving generation inside it.
    """

    __slots__ = ("name", "handle", "queue", "worker")

    def __init__(self, name: str, handle: ModelHandle) -> None:
        self.name = name
        self.handle = handle
        self.queue: asyncio.Queue | None = None
        self.worker: asyncio.Task | None = None


def _normalize_models(
    models: (
        str
        | Path
        | Mapping[str, str]
        | Sequence[str | Path | tuple[str | None, str]]
    ),
) -> list[tuple[str | None, str]]:
    """Normalize every accepted model spec to ``(name | None, path)`` pairs.

    A bare path (the single-model form every v0 caller uses) gets its
    slot name from the loaded recommender; mappings and explicit pairs
    carry their own names.
    """
    if isinstance(models, (str, Path)):
        return [(None, str(models))]
    if isinstance(models, Mapping):
        pairs = [(str(name), str(path)) for name, path in models.items()]
    else:
        pairs = []
        for entry in models:
            if isinstance(entry, (str, Path)):
                pairs.append((None, str(entry)))
            else:
                name, path = entry
                pairs.append(
                    (None if name is None else str(name), str(path))
                )
    if not pairs:
        raise ValidationError("the daemon needs at least one model")
    return pairs


def _parse_sale(entry: Any) -> Sale:
    """One JSON sale object -> :class:`Sale` (400 on malformed input)."""
    if not isinstance(entry, dict):
        raise HttpError(400, f"sale must be an object, got {type(entry).__name__}")
    item = entry.get("item", entry.get("item_id"))
    promo = entry.get("promo", entry.get("promo_code"))
    quantity = entry.get("quantity", 1.0)
    if not isinstance(item, str) or not isinstance(promo, str):
        raise HttpError(400, f"sale needs string 'item' and 'promo': {entry!r}")
    if not isinstance(quantity, (int, float)) or isinstance(quantity, bool):
        raise HttpError(400, f"sale quantity must be a number: {entry!r}")
    try:
        return Sale(item_id=item, promo_code=promo, quantity=float(quantity))
    except ValidationError as exc:
        raise HttpError(400, str(exc)) from exc


def _parse_basket(payload: Any) -> list[Sale]:
    if not isinstance(payload, list):
        raise HttpError(
            400, f"basket must be a list of sales, got {type(payload).__name__}"
        )
    return [_parse_sale(entry) for entry in payload]


def _rec_to_dict(rec: Recommendation) -> dict[str, Any]:
    return {"item": rec.item_id, "promo": rec.promo_code}


def _parse_k(payload: dict[str, Any]) -> int | None:
    """The optional ``"k"`` field: a positive int, or ``None`` when absent.

    ``None`` keeps the v0 single-offer wire format; any present ``k``
    (including 1) switches the response to the ranked ``"offers"`` form.
    """
    k = payload.get("k")
    if k is None:
        return None
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise HttpError(400, f"'k' must be a positive integer, got {k!r}")
    return k


#: JSON field types as ``(accepted Python types, name in error messages)``.
_STRING = (str, "a string")
_NUMBER = ((int, float), "a number")
_INTEGER = (int, "an integer")
_ARRAY = (list, "an array")
_OBJECT = (dict, "an object")
_MENTIONS = (str, "an array of strings")
_UNITS = ((int, float), "an object of item: units")

_JSON_TYPE_NAMES = {
    type(None): "null",
    bool: "boolean",
    int: "number",
    float: "number",
    str: "string",
    list: "array",
    dict: "object",
}


def _check_type(field: str, value: Any, kind: tuple[Any, str]) -> None:
    """400 naming ``field`` unless ``value`` has the JSON type ``kind``.

    JSON booleans never pass as numbers, although Python's ``bool``
    subclasses ``int``.
    """
    types, expected = kind
    if isinstance(value, bool) or not isinstance(value, types):
        got = _JSON_TYPE_NAMES[type(value)]
        raise HttpError(400, f"'{field}' must be {expected}, got {got}")


def _check_fields(
    payload: dict[str, Any], schema: Mapping[str, tuple[Any, str]]
) -> None:
    """Type-check every present, non-null field of ``payload``."""
    for field, kind in schema.items():
        value = payload.get(field)
        if value is not None:
            _check_type(field, value, kind)


class RecommendDaemon:
    """Always-on HTTP/JSON serving for persisted profit-mining models.

    Endpoints::

        POST /recommend        {"basket": [...], "k"?: n, "model"?: "name"}
        POST /recommend_batch  {"baskets": [[...], ...], "k"?: n, "model"?}
        POST /query            {"head_promo"?, "head_under"?, ..., "model"?}
        POST /plan             {"baskets": [[...], ...], "max_offers"?,
                                "budget"?, "offer_cost"?, "inventory"?,
                                "method"?, "model"?}
        POST /admin/reload     {"path"?: "other.json", "model"?: "name"}
        GET  /healthz
        GET  /stats

    A ``"k"`` field on the recommend endpoints switches the response to
    ranked top-k ``"offers"`` lists (micro-batching still applies: a
    flush groups waiters by ``k`` and serves each group in one batched
    call).  ``POST /plan`` runs the :mod:`repro.campaign` portfolio
    optimizer over a posted basket workload.

    ``models`` accepts a single artifact path (the v0 form), a mapping of
    ``name -> path``, or a sequence mixing bare paths and ``(name, path)``
    pairs.  The first model is the default: requests without a ``"model"``
    field route to it, and the top-level ``/healthz`` / ``/stats`` keys
    keep describing it so single-model clients never notice tenancy.

    The daemon is single-loop: request handling, batching and the flip of
    a hot-swap all run on the event loop, while artifact loading (the
    slow part of a swap) runs in a worker thread.  ``recommend_many`` is
    synchronous, so a batch is computed without yielding — a swap can
    never interleave with the middle of a batch, and each model's private
    queue means a batch is always served entirely by one model.
    """

    def __init__(
        self,
        models: (
            str
            | Path
            | Mapping[str, str]
            | Sequence[str | Path | tuple[str | None, str]]
            | None
        ) = None,
        config: ServeConfig | None = None,
        *,
        handles: Mapping[str, ModelHandle] | None = None,
        worlds: WorldCache | None = None,
    ):
        self.config = config or ServeConfig()
        # Synchronous first load: the daemon either starts serving or
        # fails loudly before binding a port.  All resident models load
        # through one shared WorldCache.  A pre-fork pool passes already
        # loaded ``handles`` instead (see :meth:`from_handles`): the
        # worker then serves the supervisor's model memory through fork
        # instead of loading its own copy.
        self.worlds = worlds if worlds is not None else WorldCache()
        self._slots: dict[str, _ModelSlot] = {}
        if handles is not None:
            if models is not None:
                raise ValidationError(
                    "pass either model paths or preloaded handles, not both"
                )
            for slot_name, handle in handles.items():
                self._slots[str(slot_name)] = _ModelSlot(
                    str(slot_name), handle
                )
            if not self._slots:
                raise ValidationError("the daemon needs at least one model")
        else:
            if models is None:
                raise ValidationError("the daemon needs at least one model")
            for name, path in _normalize_models(models):
                handle = _load_handle(path, generation=1, worlds=self.worlds)
                slot_name = (
                    name if name is not None else handle.recommender.name
                )
                if slot_name in self._slots:
                    raise ValidationError(
                        f"duplicate model name {slot_name!r}; serve each "
                        f"model under a distinct NAME=PATH"
                    )
                self._slots[slot_name] = _ModelSlot(slot_name, handle)
        self._default_name = next(iter(self._slots))
        self._server: asyncio.base_events.Server | None = None
        self._tasks: list[asyncio.Task] = []
        self._connections: set[asyncio.Task] = set()
        # asyncio.Lock binds to a loop on first acquire (>= 3.10), so it
        # is safe to create here even though serving starts later —
        # which lets pool workers reload (catch-up sync) before start().
        self._reload_lock: asyncio.Lock | None = asyncio.Lock()
        self._trace = obs.Trace("serve-daemon")
        self._serve_calls = 0
        self._started_at = time.time()
        self.counters: dict[str, int] = {
            "requests": 0,
            "recommend_requests": 0,
            "batch_requests": 0,
            "topk_requests": 0,
            "plan_requests": 0,
            "query_requests": 0,
            "baskets_served": 0,
            "batches_flushed": 0,
            "rejected_requests": 0,
            "reloads": 0,
            "reload_failures": 0,
            "errors": 0,
            "internal_errors": 0,
        }

    @classmethod
    def from_handles(
        cls,
        handles: Mapping[str, ModelHandle],
        config: ServeConfig | None = None,
        worlds: WorldCache | None = None,
    ) -> "RecommendDaemon":
        """A daemon over already-loaded serving handles.

        This is the pre-fork pool's constructor: the supervisor loads
        (and probes) every artifact exactly once, forks, and each worker
        wraps the inherited read-only model memory in its own daemon —
        N workers cost one model load, not N.
        """
        return cls(None, config, handles=handles, worlds=worlds)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def handle(self) -> ModelHandle:
        """The default model's serving generation (atomic on swap)."""
        return self._slots[self._default_name].handle

    @property
    def model_names(self) -> list[str]:
        """Resident model names in registration order (default first)."""
        return list(self._slots)

    def _slot(self, name: str | None) -> _ModelSlot:
        """Route a request's ``"model"`` field to its slot (404 unknown)."""
        if name is None:
            return self._slots[self._default_name]
        if not isinstance(name, str):
            raise HttpError(400, "'model' must be a string model name")
        slot = self._slots.get(name)
        if slot is None:
            raise HttpError(
                404,
                f"unknown model {name!r}; resident models: "
                f"{', '.join(self._slots)}",
            )
        return slot

    @property
    def port(self) -> int:
        """The bound port (useful when the config asked for port 0)."""
        if self._server is None or not self._server.sockets:
            raise ProfitMiningError("daemon is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self, sock: socket.socket | None = None) -> None:
        """Bind the socket and start the per-model batchers + poller.

        ``sock`` overrides host/port binding with an already-prepared
        (bound, possibly fork-inherited) listening socket — the pool's
        workers hand one in so every worker serves the same port.  With
        ``config.reuse_port`` the daemon binds its own ``SO_REUSEPORT``
        socket instead, letting sibling processes share the port.
        """
        if self._reload_lock is None:  # pragma: no cover - defensive
            self._reload_lock = asyncio.Lock()
        self._started_at = time.time()
        if sock is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, sock=sock
            )
        elif self.config.reuse_port:
            self._server = await asyncio.start_server(
                self._handle_connection,
                self.config.host,
                self.config.port,
                reuse_port=True,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self.config.host, self.config.port
            )
        self._tasks = []
        for slot in self._slots.values():
            slot.queue = asyncio.Queue()
            slot.worker = asyncio.create_task(self._batch_worker(slot))
            self._tasks.append(slot.worker)
        if self.config.poll_interval_s > 0:
            self._tasks.append(asyncio.create_task(self._mtime_poller()))

    async def stop(self) -> None:
        """Stop accepting, drop open connections, cancel the workers."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Idle keep-alive connections are parked in read_request; closing
        # the listener does not close them, so cancel their tasks.
        for task in [*self._connections, *self._tasks]:
            task.cancel()
        for task in [*self._connections, *self._tasks]:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._connections.clear()
        self._tasks = []

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI entry point)."""
        await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        finally:
            await self.stop()

    # ------------------------------------------------------------------
    # Hot swap
    # ------------------------------------------------------------------
    async def reload(
        self,
        path: str | None = None,
        model: str | None = None,
        generation: int | None = None,
    ) -> ModelHandle:
        """Load ``path`` (default: the slot's current artifact) and swap.

        ``model`` names the slot to swap (default: the default model).
        The load and validation run in a worker thread; only after the
        new handle is fully built does the event loop flip the serving
        reference.  On any failure the old model keeps serving.

        ``generation`` pins the new handle's generation stamp instead of
        incrementing the slot's own — the pool supervisor assigns one
        number per coordinated swap so every worker stamps responses
        with the same generation regardless of its restart history.
        """
        assert self._reload_lock is not None
        async with self._reload_lock:
            slot = self._slot(model)
            target = str(path or slot.handle.path)
            next_generation = (
                generation
                if generation is not None
                else slot.handle.generation + 1
            )
            try:
                handle = await asyncio.to_thread(
                    _load_handle, target, next_generation, self.worlds
                )
            except (OSError, ProfitMiningError):
                self.counters["reload_failures"] += 1
                raise
            slot.handle = handle  # the atomic flip
            self.counters["reloads"] += 1
            return handle

    async def _mtime_poller(self) -> None:
        """Hot-swap any slot whose artifact file changed on disk."""
        while True:
            await asyncio.sleep(self.config.poll_interval_s)
            for slot in self._slots.values():
                handle = slot.handle
                try:
                    mtime_ns = os.stat(handle.path).st_mtime_ns
                except OSError:
                    continue  # mid-replace or gone; retry next tick
                if mtime_ns != handle.mtime_ns:
                    try:
                        await self.reload(model=slot.name)
                    except (OSError, ProfitMiningError):
                        continue  # keep serving the old model

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _serve(
        self,
        handle: ModelHandle,
        baskets: Sequence[Sequence[Sale]],
        k: int | None = None,
    ) -> list[Recommendation] | list[list[Recommendation]]:
        """One batched serve call, sample-traced into the /stats trace.

        ``k=None`` is the v0 single-offer path (``recommend_many``); a
        positive ``k`` serves ranked offer lists through the memoized
        ``recommend_top_k_many`` instead.
        """
        recommender = handle.recommender
        if k is None:
            compute = lambda: recommender.recommend_many(baskets)  # noqa: E731
        else:
            compute = lambda: recommender.recommend_top_k_many(baskets, k)  # noqa: E731
        self._serve_calls += 1
        self.counters["baskets_served"] += len(baskets)
        period = self.config.trace_sample_period
        if period and self._serve_calls % period == 0:
            started = time.perf_counter()
            with obs.tracing("serve.sample") as sample:
                recommendations = compute()
            elapsed = time.perf_counter() - started
            # Keep only counters/caches: merging span trees per sample
            # would grow the daemon-lifetime trace without bound.
            sampled = sample.to_dict()
            sampled.pop("spans", None)
            self._trace.merge(sampled, label="sample")
            self._trace.count("serve.sampled_calls", 1)
            self._trace.count("serve.sampled_seconds", elapsed)
            return recommendations
        return compute()

    async def _batch_worker(self, slot: _ModelSlot) -> None:
        """Coalesce one slot's queued requests into batch serve calls.

        Flush rule: take whatever is already queued, then yield one
        event-loop pass at a time and take whatever that pass queued.
        The batch flushes as soon as a pass adds nothing, the batch is
        full, or ``max_linger_ms`` has passed since the first request was
        taken.  Handlers whose request bytes have already arrived run
        during those passes, so concurrent requests still coalesce, while
        a lone request is answered without waiting.  ``max_linger_ms=0``
        never yields: each flush takes only what is already queued.
        """
        assert slot.queue is not None
        queue = slot.queue
        max_batch = self.config.max_batch_size
        linger_s = self.config.max_linger_ms / 1000.0
        loop = asyncio.get_running_loop()

        def drain(batch: list) -> int:
            added = 0
            while len(batch) < max_batch:
                try:
                    batch.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
                added += 1
            return added

        while True:
            batch = [await queue.get()]
            drain(batch)
            if linger_s > 0:
                deadline = loop.time() + linger_s
                while len(batch) < max_batch and loop.time() < deadline:
                    await asyncio.sleep(0)
                    if not drain(batch):
                        break
            handle = slot.handle  # one generation for the whole batch
            self.counters["batches_flushed"] += 1
            # Micro-batches mix plain and top-k requests: group by k so
            # each group is one batched serve call (k=None rides
            # recommend_many, each distinct k rides recommend_top_k_many)
            # while the whole flush still serves one model generation.
            groups: dict[int | None, list[tuple[Sequence[Sale], asyncio.Future]]]
            groups = {}
            for basket, k, waiter in batch:
                groups.setdefault(k, []).append((basket, waiter))
            for group_k, members in groups.items():
                try:
                    results = self._serve(
                        handle, [basket for basket, _ in members], k=group_k
                    )
                except Exception as exc:  # pragma: no cover - defensive
                    for _, waiter in members:
                        if not waiter.done():
                            waiter.set_exception(exc)
                    continue
                for (_, waiter), result in zip(members, results):
                    if not waiter.done():
                        waiter.set_result((handle, result))

    async def _recommend_single(self, request: Request) -> bytes:
        payload = request.json()
        if not isinstance(payload, dict) or "basket" not in payload:
            raise HttpError(400, "body must be {\"basket\": [...]}")
        slot = self._slot(payload.get("model"))
        basket = _parse_basket(payload["basket"])
        k = _parse_k(payload)
        assert slot.queue is not None
        depth = self.config.max_queue_depth
        if depth and slot.queue.qsize() >= depth:
            # Shed load instead of queueing without bound: a saturated
            # micro-batch queue only adds latency to every waiter.
            self.counters["rejected_requests"] += 1
            raise HttpError(
                503,
                f"model {slot.name!r} micro-batch queue is full "
                f"({depth} waiting); retry shortly",
                retry_after=1,
            )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        await slot.queue.put((basket, k, future))
        handle, result = await future
        self.counters["recommend_requests"] += 1
        if k is None:
            body = _rec_to_dict(result)
        else:
            self.counters["topk_requests"] += 1
            body = {"offers": [_rec_to_dict(rec) for rec in result], "k": k}
        body["model"] = handle.recommender.name
        body["generation"] = handle.generation
        return json_response(200, body, request.keep_alive)

    async def _recommend_batch(self, request: Request) -> bytes:
        payload = request.json()
        if not isinstance(payload, dict) or "baskets" not in payload:
            raise HttpError(400, "body must be {\"baskets\": [[...], ...]}")
        raw = payload["baskets"]
        if not isinstance(raw, list):
            raise HttpError(400, "'baskets' must be a list of baskets")
        slot = self._slot(payload.get("model"))
        baskets = [_parse_basket(entry) for entry in raw]
        k = _parse_k(payload)
        handle = slot.handle  # one generation for the whole batch
        results = self._serve(handle, baskets, k=k)
        self.counters["batch_requests"] += 1
        body: dict[str, Any]
        if k is None:
            body = {
                "recommendations": [_rec_to_dict(r) for r in results],
            }
        else:
            self.counters["topk_requests"] += 1
            body = {
                "offers": [
                    [_rec_to_dict(rec) for rec in ranked] for ranked in results
                ],
                "k": k,
            }
        body["model"] = handle.recommender.name
        body["generation"] = handle.generation
        return json_response(200, body, request.keep_alive)

    _QUERY_FIELDS = {
        "head_promo": _STRING,
        "head_item": _STRING,
        "head_under": _STRING,
        "body_mentions": _ARRAY,
        "shape": _STRING,
        "min_conf": _NUMBER,
        "min_support": _NUMBER,
        "top": _INTEGER,
    }

    async def _query(self, request: Request) -> bytes:
        """Rule-audit queries over a resident model's columnar store."""
        payload = request.json()
        if not isinstance(payload, dict):
            raise HttpError(400, "body must be a JSON object of query filters")
        unknown = set(payload) - set(self._QUERY_FIELDS) - {"model"}
        if unknown:
            raise HttpError(
                400,
                f"unknown query fields {sorted(unknown)}; "
                f"allowed: {list(self._QUERY_FIELDS)}",
            )
        _check_fields(payload, self._QUERY_FIELDS)
        for mention in payload.get("body_mentions") or ():
            _check_type("body_mentions", mention, _MENTIONS)
        slot = self._slot(payload.get("model"))
        handle = slot.handle
        filters = {
            field: payload[field]
            for field in self._QUERY_FIELDS
            if payload.get(field) is not None
        }
        # The store's own ValidationError (unknown shape, negative top)
        # becomes a 400 in the connection handler.
        hits = handle.recommender.query_rules(**filters)
        self.counters["query_requests"] += 1
        body = {
            "model": handle.recommender.name,
            "generation": handle.generation,
            "n": len(hits),
            "hits": [hit.to_dict() for hit in hits],
        }
        return json_response(200, body, request.keep_alive)

    _PLAN_FIELDS = {
        "baskets": _ARRAY,
        "max_offers": _INTEGER,
        "budget": _NUMBER,
        "offer_cost": _NUMBER,
        "inventory": _OBJECT,
        "method": _STRING,
    }

    async def _plan(self, request: Request) -> bytes:
        """Campaign planning over a posted basket workload.

        Body: ``{"baskets": [[...], ...], "max_offers"?, "budget"?,
        "offer_cost"?, "inventory"?: {item: units}, "method"?, "model"?}``.
        Field types are checked here (``null`` means absent); constraint
        validation happens inside :func:`plan_campaign`, whose
        ``ValidationError`` surfaces as a 400 like any bad basket.
        """
        payload = request.json()
        if not isinstance(payload, dict) or "baskets" not in payload:
            raise HttpError(400, "body must be {\"baskets\": [[...], ...]}")
        unknown = set(payload) - set(self._PLAN_FIELDS) - {"model"}
        if unknown:
            raise HttpError(
                400,
                f"unknown plan fields {sorted(unknown)}; "
                f"allowed: {list(self._PLAN_FIELDS)}",
            )
        _check_type("baskets", payload["baskets"], _ARRAY)
        _check_fields(payload, self._PLAN_FIELDS)
        inventory = payload.get("inventory")
        for units in (inventory or {}).values():
            _check_type("inventory", units, _UNITS)
        slot = self._slot(payload.get("model"))
        baskets = [_parse_basket(entry) for entry in payload["baskets"]]
        offer_cost = payload.get("offer_cost")
        method = payload.get("method")
        handle = slot.handle
        plan = plan_campaign(
            handle.recommender,
            baskets,
            max_offers=payload.get("max_offers"),
            budget=payload.get("budget"),
            offer_cost=1.0 if offer_cost is None else offer_cost,
            inventory=inventory,
            method="auto" if method is None else method,
        )
        self.counters["plan_requests"] += 1
        body = plan.to_dict()
        body["model"] = handle.recommender.name
        body["generation"] = handle.generation
        return json_response(200, body, request.keep_alive)

    async def _admin_reload(self, request: Request) -> bytes:
        payload = request.json()
        path = model = None
        if isinstance(payload, dict):
            path = payload.get("path")
            model = payload.get("model")
        try:
            handle = await self.reload(path, model=model)
        except (OSError, ProfitMiningError) as exc:
            return json_response(
                500, {"swapped": False, "error": str(exc)}, request.keep_alive
            )
        return json_response(
            200, {"swapped": True, **handle.info()}, request.keep_alive
        )

    def _healthz(self, request: Request) -> bytes:
        handle = self.handle
        body = {
            "status": "ok",
            "model": handle.recommender.name,
            "generation": handle.generation,
            "uptime_s": round(time.time() - self._started_at, 3),
            "models": {
                name: slot.handle.generation
                for name, slot in self._slots.items()
            },
        }
        return json_response(200, body, request.keep_alive)

    def _stats(self, request: Request) -> bytes:
        return json_response(200, self.stats_payload(), request.keep_alive)

    def stats_payload(self) -> dict[str, Any]:
        """The ``/stats`` document as a plain dict.

        Exposed separately from the HTTP wrapper so the pool supervisor
        can collect one per worker over the control channel and merge
        them into the aggregated pool view.
        """
        trace_dict = self._trace.to_dict()
        return {
            # Top-level keys keep describing the default model so v0
            # single-model dashboards never notice tenancy.
            **self.handle.info(),
            "uptime_s": round(time.time() - self._started_at, 3),
            "queue_depth": sum(
                slot.queue.qsize()
                for slot in self._slots.values()
                if slot.queue is not None
            ),
            "worlds": len(self.worlds),
            "models": {
                name: slot.handle.info()
                for name, slot in self._slots.items()
            },
            "counters": dict(self.counters),
            "trace": {
                "counters": trace_dict["counters"],
                "caches": trace_dict["caches"],
            },
            "config": {
                "max_batch_size": self.config.max_batch_size,
                "max_linger_ms": self.config.max_linger_ms,
                "trace_sample_period": self.config.trace_sample_period,
                "poll_interval_s": self.config.poll_interval_s,
                "max_queue_depth": self.config.max_queue_depth,
            },
        }

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _route(self, request: Request) -> bytes:
        route = (request.method, request.path)
        if route == ("POST", "/recommend"):
            return await self._recommend_single(request)
        if route == ("POST", "/recommend_batch"):
            return await self._recommend_batch(request)
        if route == ("POST", "/query"):
            return await self._query(request)
        if route == ("POST", "/plan"):
            return await self._plan(request)
        if route == ("POST", "/admin/reload"):
            return await self._admin_reload(request)
        if route == ("GET", "/healthz"):
            return self._healthz(request)
        if route == ("GET", "/stats"):
            return self._stats(request)
        known_paths = {
            "/recommend", "/recommend_batch", "/query", "/plan",
            "/admin/reload", "/healthz", "/stats",
        }
        if request.path in known_paths:
            raise HttpError(405, f"{request.method} not allowed on {request.path}")
        raise HttpError(404, f"unknown path {request.path}")

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        head_cache = HeadCache()
        try:
            while True:
                try:
                    request = await read_request(reader, head_cache)
                except HttpError as exc:
                    self.counters["errors"] += 1
                    writer.write(
                        json_response(
                            exc.status, {"error": str(exc)}, keep_alive=False
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                self.counters["requests"] += 1
                keep_alive = request.keep_alive
                try:
                    response = await self._route(request)
                except HttpError as exc:
                    self.counters["errors"] += 1
                    response = json_response(
                        exc.status,
                        {"error": str(exc)},
                        keep_alive,
                        retry_after=exc.retry_after,
                    )
                except (CatalogError, ValidationError) as exc:
                    # Unknown items / promo codes and other bad basket
                    # content are the client's data, not a server fault.
                    self.counters["errors"] += 1
                    response = json_response(
                        400, {"error": str(exc)}, keep_alive
                    )
                except ProfitMiningError as exc:
                    self.counters["errors"] += 1
                    response = json_response(
                        500, {"error": str(exc)}, keep_alive
                    )
                except Exception as exc:
                    # A fault in the daemon itself: log it, answer a
                    # well-formed 500 and close, since the connection's
                    # state after an unexpected failure cannot be vouched
                    # for.
                    _log.exception(
                        "internal error serving %s %s",
                        request.method,
                        request.path,
                    )
                    self.counters["errors"] += 1
                    self.counters["internal_errors"] += 1
                    keep_alive = False
                    response = json_response(
                        500,
                        {"error": f"internal error: {type(exc).__name__}"},
                        keep_alive=False,
                    )
                writer.write(response)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-response; nothing to answer
        except asyncio.CancelledError:
            # Daemon shutdown cancels parked keep-alive connections; end
            # the task cleanly so the streams layer has nothing to log.
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass


class BackgroundDaemon:
    """A daemon running on a dedicated event-loop thread.

    The embedding used by the benchmark gate and the integration tests
    (and handy for notebooks): start, talk to ``http://host:port`` from
    ordinary blocking clients, stop.  Context-manager form::

        with BackgroundDaemon("model.json") as daemon:
            requests_go_to(f"http://127.0.0.1:{daemon.port}")
    """

    def __init__(
        self,
        models: (
            str
            | Path
            | Mapping[str, str]
            | Sequence[str | Path | tuple[str | None, str]]
        ),
        config: ServeConfig | None = None,
    ):
        self.daemon = RecommendDaemon(models, config)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()

    @property
    def port(self) -> int:
        return self.daemon.port

    def __enter__(self) -> "BackgroundDaemon":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def start(self, timeout: float = 10.0) -> None:
        """Spin up the loop thread and block until the socket is bound."""
        self._loop = asyncio.new_event_loop()

        def _run() -> None:
            assert self._loop is not None
            asyncio.set_event_loop(self._loop)
            self._loop.run_until_complete(self.daemon.start())
            self._started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(
            target=_run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):  # pragma: no cover - defensive
            raise ProfitMiningError("daemon failed to start in time")

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the daemon and join the loop thread."""
        if self._loop is None or self._thread is None:
            return
        future = asyncio.run_coroutine_threadsafe(self.daemon.stop(), self._loop)
        future.result(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)
        self._loop.close()
        self._loop = None
        self._thread = None

    def reload(
        self,
        path: str | None = None,
        model: str | None = None,
        timeout: float = 30.0,
    ) -> ModelHandle:
        """Trigger a hot-swap from the calling thread (blocks until done)."""
        assert self._loop is not None
        future = asyncio.run_coroutine_threadsafe(
            self.daemon.reload(path, model=model), self._loop
        )
        return future.result(timeout)
