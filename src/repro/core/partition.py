"""SON two-pass partitioned mining over the out-of-core store.

The in-RAM miner (:mod:`repro.core.mining`) holds every gsale's tid-mask
for the whole database at once.  This module mines the same rule set —
bit-identically, floats included — from a
:class:`~repro.core.engine.store.ChunkedTransactionStore` whose mask
matrices live on disk, using the classic SON (Savasere–Omiecinski–Navathe,
VLDB'95) two-pass scheme:

* **Pass 1 (local discovery).**  Each partition ``p`` is mined
  independently with the *n-independent* local threshold
  ``max(1, ceil(min_support · n_p))`` — the same level-wise Apriori the
  in-RAM dense backend runs, on the partition's memmapped kernel.  If a
  body is globally frequent its count satisfies
  ``count(B) ≥ ceil(s·n)``, and since ``count_p(B) < ceil(s·n_p)``
  implies ``count_p(B) < s·n_p`` for integer counts, failing in *every*
  partition would force ``count(B) < s·Σn_p = s·n`` — so every globally
  frequent body is locally frequent somewhere.  The union of local
  results is therefore a complete candidate superset (no false
  negatives), and because each local search enforces the same
  ancestor-free / ``max_body_size`` invariants over the shared symbol
  table, it introduces no body the in-RAM search could not generate.
* **Pass 2 (exact counting).**  One streaming pass counts every
  candidate's global support and (body, head) hit counts with the dense
  kernel's batched AND + popcount; a second streaming pass accumulates
  the credited-profit sums of the surviving pairs *sequentially in
  ascending global transaction order* — one Python float add per hit,
  exactly the summation the in-RAM miner performs — so every emitted
  ``rule_profit`` is the identical float, not merely a close one.

Rule order is reconstructed without replaying the joins: the in-RAM
Apriori emits each level's bodies in ascending lexicographic id order
(level 1 enumerates sorted gids; the prefix join of sorted keys produces
sorted output, and frequency filtering preserves order), so sorting the
globally frequent bodies by ``(len, ids)`` reproduces ``ordered_bodies``
— and hence rule numbering — exactly.

**Incremental refresh** (:func:`refresh_store`) appends new partitions
and updates the result without re-mining history: local thresholds don't
depend on ``n``, so old partitions' local results stay valid; counts and
profit sums extend by the new partitions' contributions (new global
positions follow all old ones, so sequential float accumulation extends
exactly); only *delta* candidates — bodies or pairs that the grown union
or thresholds newly require — are counted over old partitions.  The SON
state needed for this lives next to the store (``son_state.json`` plus
binary side files) and is rewritten after every mine/refresh.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.engine.kernel import DenseBitsetKernel, resolve_backend, resolve_jobs
from repro.core.engine.store import (
    DEFAULT_PARTITION_SIZE,
    ChunkedTransactionStore,
    StorePartition,
)
from repro.core.engine.symbols import SymbolTable
from repro.core.generalized import GKind, GSale
from repro.core.mining import (
    _EMIT_CHUNK,
    _JOIN_CHUNK,
    MinerConfig,
    MiningResult,
    TransactionIndex,
    _build_default_rule,
    _next_level_dense,
)
from repro.core.moa import MOAHierarchy
from repro.core.profit import ProfitModel
from repro.core.rules import Rule, RuleStats, ScoredRule
from repro.core.sales import Transaction, TransactionDB
from repro.errors import MiningError, SerializationError
from repro.obs import trace as obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the numpy-free CI leg
    np = None  # type: ignore[assignment]

__all__ = [
    "PartitionedIndex",
    "mine_partitioned_db",
    "mine_store",
    "refresh_store",
]

_STATE_FORMAT = "repro-son-state-v1"
_STATE_JSON = "son_state.json"
_STATE_PAIRS = "son_state.pairs.i64"
_STATE_PROFITS = "son_state.profits.f64"
_STATE_MASKS = "son_state.masks.bin"

#: MinerConfig fields that must match between the mine that wrote a SON
#: state and a refresh extending it — they shape the candidate space.
_CONFIG_ECHO = (
    "min_support",
    "min_confidence",
    "min_rule_profit",
    "max_body_size",
    "max_candidates_per_level",
)

Body = tuple[int, ...]


# ---------------------------------------------------------------------------
# TransactionIndex-compatible facade
# ---------------------------------------------------------------------------
class PartitionedIndex:
    """The out-of-core stand-in for :class:`TransactionIndex`.

    Downstream passes (covering, pruning, analysis, compilation) consume
    a mining result's index through a narrow surface — ``n``, ``moa``,
    ``profit_model``, ``symbols``, ``gsale_id``, ``closure_ids``,
    ``head_hits_mask``, ``hit_profit``, ``body_mask``,
    ``mask_positions`` and the shared caches.  This facade answers all
    of them from the partitioned store, assembling global masks lazily
    (per gsale / head, memoized) instead of ever materializing the full
    matrix; per-position profit lookups bisect to the owning partition
    and read its aligned profit column.  Floats are identical to the
    in-RAM index's: the store persisted the same credited profits, and
    position orders are preserved.
    """

    def __init__(self, store: ChunkedTransactionStore) -> None:
        self.store = store
        self.n = store.n
        self.moa = store.moa
        self.profit_model = store.profit_model
        self.symbols: SymbolTable = store.symbols
        self.closure_cache: dict[Body, frozenset[int]] = {}
        self.frozen_body_cache: dict[Body, frozenset[int]] = {}
        self.projected_profit_cache: dict[tuple[float, int, int], float] = {}
        self._offsets = [
            int(store.partition_meta(i)["offset"])
            for i in range(store.n_partitions)
        ]
        self._head_mask_cache: dict[int, int] = {}
        self._gid_mask_cache: dict[int, int] = {}
        self._profit_cache: dict[tuple[int, int], dict[int, float]] = {}
        self._global_head_counts = store.global_head_counts()
        # Owner handle for a temporary spill directory (set by
        # mine_partitioned_db); deleting the index deletes the spill.
        self._tmp: tempfile.TemporaryDirectory | None = None

    # -- symbol-table views (same shape as TransactionIndex) -----------
    @property
    def gsales(self) -> list[GSale]:
        return self.symbols.gsales

    @property
    def gsale_ids(self) -> dict[GSale, int]:
        return self.symbols.ids

    @property
    def candidate_head_ids(self) -> list[int]:
        return self.symbols.candidate_head_ids

    @property
    def ancestor_ids(self) -> list[frozenset[int]]:
        return self.symbols.ancestor_ids

    @property
    def closure_ids(self) -> list[frozenset[int]]:
        return self.symbols.closure_ids

    def gsale_id(self, gsale: GSale) -> int:
        """Dense id of ``gsale`` in the shared symbol table."""
        try:
            return self.symbols.ids[gsale]
        except KeyError:
            raise MiningError(
                f"generalized sale {gsale.describe()} not present in index"
            ) from None

    # -- masks ---------------------------------------------------------
    def _gid_mask(self, gid: int) -> int:
        mask = self._gid_mask_cache.get(gid)
        if mask is None:
            mask = 0
            for part in self.store.iter_partitions():
                row = part.kernel().body_rows.get(gid)
                if row is not None:
                    local = int.from_bytes(
                        part.kernel().row_of(gid).tobytes(), "little"
                    )
                    mask |= local << part.offset
            self._gid_mask_cache[gid] = mask
        return mask

    def head_hits_mask(self, head_id: int) -> int:
        """Global tid-mask of transactions whose target matches ``head_id``."""
        mask = self._head_mask_cache.get(head_id)
        if mask is None:
            mask = 0
            if self._global_head_counts.get(head_id, 0):
                for part in self.store.iter_partitions():
                    row = part.head_row(head_id)
                    if row is not None:
                        mask |= (
                            int.from_bytes(row.tobytes(), "little")
                            << part.offset
                        )
            self._head_mask_cache[head_id] = mask
        return mask

    def body_mask(self, body_ids: Sequence[int]) -> int:
        """Global tid-mask of transactions matching every id in the body."""
        if not body_ids:
            return (1 << self.n) - 1
        mask = self._gid_mask(body_ids[0])
        for gid in body_ids[1:]:
            if not mask:
                return 0
            mask &= self._gid_mask(gid)
        return mask

    def mask_positions(self, mask: int) -> list[int]:
        """Ascending set-bit positions (vectorized, same order as iter_bits)."""
        as_bytes = np.frombuffer(
            mask.to_bytes((self.n + 7) // 8, "little"), dtype=np.uint8
        )
        bits = np.unpackbits(as_bytes, bitorder="little", count=self.n)
        return np.flatnonzero(bits).tolist()

    # -- per-position profit -------------------------------------------
    def _partition_of(self, pos: int) -> int:
        return bisect_right(self._offsets, pos) - 1

    def hit_profit(self, transaction_pos: int, head_id: int) -> float:
        """Credited profit of ``head_id`` at global position ``transaction_pos``.

        Zero when the transaction's target does not match the head —
        the same contract as ``TransactionIndex.hit_profit``.
        """
        pi = self._partition_of(transaction_pos)
        table = self._profit_cache.get((pi, head_id))
        if table is None:
            part = self.store.partition(pi)
            row = part.head_row(head_id)
            if row is None:
                table = {}
            else:
                positions = _row_positions(row, part.n)
                table = dict(
                    zip(positions.tolist(), part.head_profits(head_id).tolist())
                )
            self._profit_cache[(pi, head_id)] = table
        return table.get(transaction_pos - self._offsets[pi], 0.0)

    @staticmethod
    def iter_bits(mask: int):
        """Yield the positions of the set bits of ``mask``, ascending."""
        return TransactionIndex.iter_bits(mask)


# ---------------------------------------------------------------------------
# Helpers shared by mine and refresh
# ---------------------------------------------------------------------------
def _row_positions(row: "numpy.ndarray", n: int) -> "numpy.ndarray":
    """Ascending set-bit positions of one uint64 chunk row."""
    bits = np.unpackbits(row.view(np.uint8), bitorder="little", count=n)
    return np.flatnonzero(bits)


def _local_minsup(min_support: float, n_local: int) -> int:
    """The n-independent local threshold ``max(1, ceil(s · n_p))``."""
    return max(1, math.ceil(min_support * n_local))


def _local_frequent_bodies(
    part: StorePartition,
    config: MinerConfig,
    ancestor_ids: list[frozenset[int]],
) -> set[Body]:
    """Pass 1 on one partition: its locally frequent ancestor-free bodies.

    Runs the in-RAM dense Apriori's own level step
    (:func:`repro.core.mining._next_level_dense`: the level-2 pair
    histogram, the sorted prefix join with all-subsets pruning above it,
    the explosion cap) on the partition's kernel — only the support
    threshold is the partition-local one.
    """
    minsup = _local_minsup(config.min_support, part.n)
    kernel = part.kernel()
    with obs.span("partition.local_mine", partition=part.name):
        counts = kernel.single_counts()
        keys: list[Body] = [
            (gid,) for gid in kernel.body_gids if counts[gid] >= minsup
        ]
        rows = kernel.gather_rows([key[0] for key in keys])
        found: set[Body] = set(keys)
        size = 1
        while keys and size < config.max_body_size:
            keys, rows, _ = _next_level_dense(
                kernel,
                keys,
                rows,
                minsup,
                config,
                size,
                ancestor_ids,
                where=f" in partition {part.name}",
            )
            found.update(keys)
            size += 1
        obs.count("partition.partitions_mined")
        obs.count("partition.local_frequent", len(found))
    return found


def _mine_locals(
    store: ChunkedTransactionStore,
    partitions: Sequence[int],
    config: MinerConfig,
    symbols: SymbolTable,
) -> set[Body]:
    """Pass 1 over the given partitions (optionally thread-parallel)."""
    ancestor_ids = symbols.ancestor_ids
    n_jobs = resolve_jobs(config.n_jobs)
    union: set[Body] = set()
    with obs.span("partition.pass1", partitions=str(len(partitions))):
        if n_jobs > 1 and len(partitions) > 1:
            trace = obs.current_trace()

            def task(i: int) -> set[Body]:
                return _local_frequent_bodies(
                    store.partition(i), config, ancestor_ids
                )

            with ThreadPoolExecutor(max_workers=n_jobs) as executor:
                futures = [
                    executor.submit(obs.run_traced, task, i)
                    for i in partitions
                ]
                for i, future in zip(partitions, futures):
                    local, trace_dict = future.result()
                    union.update(local)
                    if trace is not None:
                        trace.merge(trace_dict, label=f"partition-{i}")
        else:
            for i in partitions:
                union.update(
                    _local_frequent_bodies(
                        store.partition(i), config, ancestor_ids
                    )
                )
    return union


def _prune_union(union: set[Body]) -> list[Body]:
    """Anti-monotone prune of the raw union, in canonical order.

    A body can only be globally frequent if every one of its
    ``(k−1)``-subsets is too — and every globally frequent body is in
    the union (SON), so a body with a missing subset is safely dropped
    before the counting pass.  The surviving list is sorted by
    ``(len, ids)``: exactly the in-RAM miner's ``ordered_bodies`` order
    once restricted to the globally frequent.
    """
    kept: list[Body] = []
    for body in sorted(union, key=lambda b: (len(b), b)):
        if len(body) > 1 and any(
            body[:drop] + body[drop + 1 :] not in union
            for drop in range(len(body))
        ):
            continue
        kept.append(body)
    return kept


def _body_matrix(
    kernel: DenseBitsetKernel, bodies: Sequence[Body]
) -> "numpy.ndarray":
    """Local tid-mask rows of many bodies (zero row for absent members).

    A gsale with no occurrences in the partition has no kernel row; any
    body containing one matches nothing locally, mirroring the in-RAM
    ``body_masks.get(gid, 0)`` convention.  Rows are fetched with one
    batched gather per body position (not one memmap read per gsale),
    which is what keeps pass 2 off the memmap random-access path.
    """
    out = np.zeros((len(bodies), kernel.n_chunks), dtype="<u8")
    rows = kernel.body_rows
    present = [
        i for i, body in enumerate(bodies)
        if all(gid in rows for gid in body)
    ]
    if not present:
        return out
    acc = kernel.gather_rows([bodies[i][0] for i in present])
    max_len = max(len(bodies[i]) for i in present)
    for k in range(1, max_len):
        longer = [j for j, i in enumerate(present) if len(bodies[i]) > k]
        if not longer:
            break
        extra = kernel.gather_rows([bodies[present[j]][k] for j in longer])
        sel = np.asarray(longer, dtype=np.intp)
        acc[sel] &= extra
    out[np.asarray(present, dtype=np.intp)] = acc
    return out


def _head_matrix(
    part: StorePartition, head_ids: Sequence[int]
) -> "numpy.ndarray":
    """Local hit-mask rows of many heads (zero row for absent heads)."""
    n_chunks = (part.n + 63) // 64
    out = np.zeros((len(head_ids), n_chunks), dtype="<u8")
    for j, hid in enumerate(head_ids):
        row = part.head_row(hid)
        if row is not None:
            out[j] = row
    return out


def _count_partitions(
    store: ChunkedTransactionStore,
    partitions: Sequence[int],
    bodies: Sequence[Body],
    head_ids: Sequence[int],
    body_counts: "numpy.ndarray",
    pair_counts: "numpy.ndarray",
) -> None:
    """Add the partitions' support counts into the accumulators (pass 2a).

    Bodies are counted in bounded batches: one (bodies, chunks) matrix
    for *all* candidates would dwarf the partition itself once the
    union runs to tens of thousands of bodies.
    """
    if not bodies:
        return
    for i in partitions:
        part = store.partition(i)
        with obs.span("partition.count", partition=part.name):
            kernel = part.kernel()
            heads = _head_matrix(part, head_ids) if head_ids else None
            for start in range(0, len(bodies), _JOIN_CHUNK):
                stop = min(start + _JOIN_CHUNK, len(bodies))
                rows = _body_matrix(kernel, bodies[start:stop])
                body_counts[start:stop] += kernel.popcounts(rows)
                if heads is not None:
                    pair_counts[start:stop] += kernel.head_hit_counts(
                        rows, heads
                    )


def _accumulate_profits(
    store: ChunkedTransactionStore,
    partitions: Sequence[int],
    pairs: dict[tuple[Body, int], float],
) -> None:
    """Extend the pairs' credited-profit sums over the partitions (pass 2b).

    Partitions are walked in ascending offset order and every hit's
    profit is added *one float at a time* — never a vectorized partial
    sum, whose different association would change the result bits.  The
    accumulator a pair arrives with must already cover every earlier
    transaction, so the extension equals the in-RAM miner's single
    ascending sequential sum over the pair's global hit positions.
    """
    if not pairs:
        return
    by_body: dict[Body, list[int]] = {}
    for body, hid in pairs:
        by_body.setdefault(body, []).append(hid)
    bodies = sorted(by_body, key=lambda b: (len(b), b))
    for i in sorted(partitions):
        part = store.partition(i)
        with obs.span("partition.profits", partition=part.name):
            kernel = part.kernel()
            heads: dict[int, tuple["numpy.ndarray", "numpy.ndarray"]] = {}
            for hid in {hid for hids in by_body.values() for hid in hids}:
                head_row = part.head_row(hid)
                if head_row is None:
                    continue
                positions = _row_positions(head_row, part.n)
                if positions.size:
                    heads[hid] = (positions, part.head_profits(hid))
            # Bodies are unpacked to per-transaction bits in bounded
            # batches; each body's bit row is then probed once per head.
            # ``sum(values, acc)`` adds left to right, one float64 IEEE
            # add per hit — the same operations as an explicit loop, so
            # the accumulator stays bit-identical.
            for start in range(0, len(bodies), _EMIT_CHUNK):
                batch = bodies[start : start + _EMIT_CHUNK]
                matrix = _body_matrix(kernel, batch)
                bits = np.unpackbits(
                    matrix.view(np.uint8),
                    axis=1,
                    bitorder="little",
                    count=part.n,
                )
                for body, row_bits in zip(batch, bits):
                    for hid in by_body[body]:
                        entry = heads.get(hid)
                        if entry is None:
                            continue
                        positions, profits = entry
                        selected = profits[row_bits[positions].view(np.bool_)]
                        if selected.size:
                            pairs[(body, hid)] = sum(
                                selected.tolist(), pairs[(body, hid)]
                            )


def _extend_head_totals(
    store: ChunkedTransactionStore,
    partitions: Sequence[int],
    totals: dict[int, tuple[int, float]],
) -> None:
    """Extend per-head (hit count, total credited profit) accumulators.

    Sequential ascending adds, partition by partition — the same order
    the in-RAM miner sums each head's hits in, so totals agree
    bit-for-bit.  Heads that never hit stay absent (the in-RAM default
    rule then sums an empty sequence, yielding integer 0; keeping them
    absent preserves even that).
    """
    for i in sorted(partitions):
        part = store.partition(i)
        for hid in part.head_ids:
            profits = part.head_profits(hid)
            count, total = totals.get(hid, (0, 0.0))
            for value in profits.tolist():
                total += value
            totals[hid] = (count + len(profits), total)


def _collect_masks(
    store: ChunkedTransactionStore,
    partitions: Sequence[int],
    masks: dict[Body, int],
) -> None:
    """OR the partitions' local body masks (shifted to global positions)."""
    if not masks:
        return
    bodies = list(masks)
    for i in sorted(partitions):
        part = store.partition(i)
        kernel = part.kernel()
        for start in range(0, len(bodies), _JOIN_CHUNK):
            batch = bodies[start : start + _JOIN_CHUNK]
            rows = _body_matrix(kernel, batch)
            for body, row in zip(batch, rows):
                local = int.from_bytes(row.tobytes(), "little")
                if local:
                    masks[body] |= local << part.offset


# ---------------------------------------------------------------------------
# SON state persistence
# ---------------------------------------------------------------------------
def _config_echo(config: MinerConfig) -> dict[str, float | int]:
    return {name: getattr(config, name) for name in _CONFIG_ECHO}


def _save_state(
    store: ChunkedTransactionStore,
    config: MinerConfig,
    union: set[Body],
    counted: list[Body],
    body_counts: "numpy.ndarray",
    pair_counts: "numpy.ndarray",
    head_totals: dict[int, tuple[int, float]],
    pair_profits: dict[tuple[Body, int], float],
    emitted_masks: dict[Body, int],
) -> None:
    """Persist everything a refresh needs, sized for truncation checks."""
    root = store.root
    head_col = {
        hid: j for j, hid in enumerate(store.symbols.candidate_head_ids)
    }
    body_row = {body: k for k, body in enumerate(counted)}
    mask_bodies = sorted(emitted_masks, key=lambda b: (len(b), b))
    mask_bytes = (store.n + 7) // 8
    pairs_blob = np.ascontiguousarray(pair_counts, dtype="<i8").tobytes()
    with open(root / _STATE_PAIRS, "wb") as handle:
        handle.write(pairs_blob)
    # Credited-profit accumulators ride in a float64 grid aligned with the
    # pair-count grid: binary float64 round-trips the sums exactly, and
    # NaN marks a pair with no stored sum (adding finite credited profits
    # can never produce one).
    profit_grid = np.full(pair_counts.shape, np.nan, dtype="<f8")
    for (body, hid), profit in pair_profits.items():
        profit_grid[body_row[body], head_col[hid]] = profit
    profits_blob = profit_grid.tobytes()
    with open(root / _STATE_PROFITS, "wb") as handle:
        handle.write(profits_blob)
    with open(root / _STATE_MASKS, "wb") as handle:
        for body in mask_bodies:
            handle.write(emitted_masks[body].to_bytes(mask_bytes, "little"))
    state = {
        "format": _STATE_FORMAT,
        "config": _config_echo(config),
        "n": store.n,
        "n_partitions": store.n_partitions,
        "union": sorted(union),
        "counted": [list(body) for body in counted],
        "body_counts": [int(c) for c in body_counts],
        "pair_counts_bytes": len(pairs_blob),
        "pair_profit_bytes": len(profits_blob),
        "head_totals": {
            str(hid): [count, total]
            for hid, (count, total) in sorted(head_totals.items())
        },
        "mask_body_rows": [body_row[body] for body in mask_bodies],
        "mask_bytes": mask_bytes,
    }
    temporary = root / (_STATE_JSON + ".tmp")
    with open(temporary, "w", encoding="utf-8") as handle:
        json.dump(state, handle, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, root / _STATE_JSON)


def _load_state(store: ChunkedTransactionStore, config: MinerConfig) -> dict:
    """Load and validate the SON state written by the previous mine."""
    path = store.root / _STATE_JSON
    if not path.exists():
        raise MiningError(
            f"{store.root}: no SON mining state found; run a full "
            "out-of-core mine before refreshing"
        )
    try:
        state = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SerializationError(f"{path}: corrupt SON state: {exc}") from exc
    if state.get("format") != _STATE_FORMAT:
        raise SerializationError(
            f"{path}: unexpected SON state format {state.get('format')!r}"
        )
    if state.get("config") != _config_echo(config):
        raise MiningError(
            "refresh MinerConfig differs from the one the SON state was "
            f"mined with ({state.get('config')} vs {_config_echo(config)}); "
            "re-mine the store instead"
        )
    counted = [tuple(body) for body in state["counted"]]
    head_ids = store.symbols.candidate_head_ids
    n_heads = len(head_ids)
    pairs_path = store.root / _STATE_PAIRS
    expected = len(counted) * n_heads * 8
    if int(state["pair_counts_bytes"]) != expected:
        raise SerializationError(
            f"{pairs_path}: SON state records {state['pair_counts_bytes']} "
            f"pair-count bytes but the candidate grid needs {expected}"
        )
    actual = pairs_path.stat().st_size if pairs_path.exists() else -1
    if actual != expected:
        raise SerializationError(
            f"{pairs_path}: pair-count file is {actual} bytes, expected "
            f"{expected} — the SON state is truncated or corrupt"
        )
    pair_counts = (
        np.fromfile(pairs_path, dtype="<i8").reshape(len(counted), n_heads)
        if expected
        else np.zeros((0, n_heads), dtype=np.int64)
    )
    profits_path = store.root / _STATE_PROFITS
    if int(state["pair_profit_bytes"]) != expected:
        raise SerializationError(
            f"{profits_path}: SON state records "
            f"{state['pair_profit_bytes']} profit bytes but the candidate "
            f"grid needs {expected}"
        )
    actual_profits = profits_path.stat().st_size if profits_path.exists() else -1
    if actual_profits != expected:
        raise SerializationError(
            f"{profits_path}: profit file is {actual_profits} bytes, "
            f"expected {expected} — the SON state is truncated or corrupt"
        )
    pair_profits: dict[tuple[Body, int], float] = {}
    if expected:
        profit_grid = np.fromfile(profits_path, dtype="<f8").reshape(
            len(counted), n_heads
        )
        for k, j in np.argwhere(~np.isnan(profit_grid)):
            pair_profits[(counted[k], head_ids[j])] = float(profit_grid[k, j])
    masks_path = store.root / _STATE_MASKS
    mask_bytes = int(state["mask_bytes"])
    mask_rows = [int(k) for k in state["mask_body_rows"]]
    if any(not 0 <= k < len(counted) for k in mask_rows):
        raise SerializationError(
            f"{path}: mask body rows fall outside the counted candidate "
            "list — the SON state is corrupt"
        )
    mask_bodies = [counted[k] for k in mask_rows]
    expected_masks = mask_bytes * len(mask_bodies)
    actual_masks = masks_path.stat().st_size if masks_path.exists() else -1
    if actual_masks != expected_masks:
        raise SerializationError(
            f"{masks_path}: mask file is {actual_masks} bytes, expected "
            f"{expected_masks} — the SON state is truncated or corrupt"
        )
    emitted_masks: dict[Body, int] = {}
    if mask_bodies:
        blob = masks_path.read_bytes()
        for k, body in enumerate(mask_bodies):
            emitted_masks[body] = int.from_bytes(
                blob[k * mask_bytes : (k + 1) * mask_bytes], "little"
            )
    return {
        "n": int(state["n"]),
        "n_partitions": int(state["n_partitions"]),
        "union": {tuple(body) for body in state["union"]},
        "counted": counted,
        "body_counts": {
            body: int(count)
            for body, count in zip(counted, state["body_counts"])
        },
        "pair_counts": pair_counts,
        "head_totals": {
            int(hid): (int(entry[0]), float(entry[1]))
            for hid, entry in state["head_totals"].items()
        },
        "pair_profits": pair_profits,
        "emitted_masks": emitted_masks,
    }


# ---------------------------------------------------------------------------
# Emission (mirrors repro.core.mining's filter chain exactly)
# ---------------------------------------------------------------------------
def _emit(
    index: PartitionedIndex,
    config: MinerConfig,
    minsup_count: int,
    frequent_bodies: list[Body],
    body_counts: dict[Body, int],
    pair_counts_of: dict[tuple[Body, int], int],
    pair_profits: dict[tuple[Body, int], float],
    frequent_heads: list[int],
) -> tuple[list[ScoredRule], dict[int, Body], list[Body]]:
    """The emission loop: (scored rules, order → body ids, emitted bodies).

    Iterates frequent bodies in the reconstructed generation order and
    frequent heads in candidate order, applying the in-RAM filter chain
    — promo-block, pair support, confidence, rule profit — with the
    identical short-circuit order, so rule numbering matches exactly.
    """
    gsales = index.gsales
    promo_node = [g.node if g.kind is GKind.PROMO else None for g in gsales]
    head_nodes = {hid: gsales[hid].node for hid in frequent_heads}
    min_confidence = config.min_confidence
    min_rule_profit = config.min_rule_profit
    n_total = index.n

    scored: list[ScoredRule] = []
    body_ids_by_order: dict[int, Body] = {}
    emitted_bodies: list[Body] = []
    order = 0
    with obs.span("partition.emit"):
        for body in frequent_bodies:
            n_matched = body_counts[body]
            body_gsales: frozenset[GSale] | None = None
            blocked_items = {
                node
                for gid in body
                if (node := promo_node[gid]) is not None
            }
            for hid in frequent_heads:
                if head_nodes[hid] in blocked_items:
                    continue
                n_hits = pair_counts_of[(body, hid)]
                if n_hits < minsup_count:
                    continue
                if n_matched and n_hits / n_matched < min_confidence:
                    continue
                rule_profit = pair_profits[(body, hid)]
                if rule_profit < min_rule_profit:
                    continue
                if body_gsales is None:
                    body_gsales = frozenset(gsales[gid] for gid in body)
                    emitted_bodies.append(body)
                rule = Rule(body=body_gsales, head=gsales[hid], order=order)
                stats = RuleStats(
                    n_matched=n_matched,
                    n_hits=n_hits,
                    rule_profit=rule_profit,
                    n_total=n_total,
                )
                body_ids_by_order[order] = body
                scored.append(ScoredRule(rule=rule, stats=stats))
                order += 1
    return scored, body_ids_by_order, emitted_bodies


def _needed_pairs(
    config: MinerConfig,
    minsup_count: int,
    frequent_bodies: list[Body],
    body_counts: dict[Body, int],
    pair_counts_of: dict[tuple[Body, int], int],
    frequent_heads: list[int],
    gsales: list[GSale],
) -> list[tuple[Body, int]]:
    """The (body, head) pairs whose credited-profit sum emission will read.

    Exactly the pairs that reach the ``rule_profit`` check in
    :func:`_emit`: promo-block, pair support and confidence applied in
    the same order.
    """
    promo_node = [g.node if g.kind is GKind.PROMO else None for g in gsales]
    head_nodes = {hid: gsales[hid].node for hid in frequent_heads}
    needed: list[tuple[Body, int]] = []
    for body in frequent_bodies:
        n_matched = body_counts[body]
        blocked = {
            node for gid in body if (node := promo_node[gid]) is not None
        }
        for hid in frequent_heads:
            if head_nodes[hid] in blocked:
                continue
            n_hits = pair_counts_of[(body, hid)]
            if n_hits < minsup_count:
                continue
            if n_matched and n_hits / n_matched < config.min_confidence:
                continue
            needed.append((body, hid))
    return needed


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
def mine_store(
    store: ChunkedTransactionStore, config: MinerConfig
) -> MiningResult:
    """Full SON two-pass mine of a partitioned store.

    Bit-identical to in-RAM mining (any backend) of the same
    transactions with the same configuration; see the module docstring
    for the argument.  Persists the SON state for
    :func:`refresh_store` next to the store.
    """
    symbols = store.symbols
    minsup_count = max(1, math.ceil(config.min_support * store.n))
    obs.count("mine.backend.ooc")
    obs.annotate(backend="ooc")

    all_partitions = list(range(store.n_partitions))
    union = _mine_locals(store, all_partitions, config, symbols)
    obs.count("partition.union_candidates", len(union))

    counted = _prune_union(union)
    head_ids = symbols.candidate_head_ids
    body_counts_arr = np.zeros(len(counted), dtype=np.int64)
    pair_counts = np.zeros((len(counted), len(head_ids)), dtype=np.int64)
    _count_partitions(
        store, all_partitions, counted, head_ids, body_counts_arr, pair_counts
    )

    head_totals: dict[int, tuple[int, float]] = {}
    _extend_head_totals(store, all_partitions, head_totals)

    return _finish(
        store,
        config,
        minsup_count,
        union,
        counted,
        body_counts_arr,
        pair_counts,
        head_totals,
        stored_profits={},
        stored_masks={},
        new_partitions=(),
    )


def refresh_store(
    store: ChunkedTransactionStore,
    new_transactions: Iterable[Transaction],
    config: MinerConfig,
) -> MiningResult:
    """Append ``new_transactions`` and update the mining result incrementally.

    Old partitions are never re-mined: their local results remain valid
    (local thresholds don't depend on ``n``), existing candidates gain
    only the new partitions' counts, and stored profit sums extend
    sequentially (new global positions follow all old ones).  Old
    partitions are re-counted only for the *delta* — candidates or
    (body, head) pairs the grown union and thresholds newly require.
    The result is identical to :func:`mine_store` on the combined
    store.
    """
    state = _load_state(store, config)
    if (
        state["n"] != store.n
        or state["n_partitions"] != store.n_partitions
    ):
        raise MiningError(
            f"{store.root}: SON state covers {state['n']} transactions in "
            f"{state['n_partitions']} partitions but the store holds "
            f"{store.n} in {store.n_partitions}; re-mine the store"
        )
    with obs.span("partition.refresh"):
        new_partitions = store.append(new_transactions)
        if not new_partitions:
            raise MiningError("refresh needs at least one new transaction")
        old_partitions = [
            i for i in range(store.n_partitions) if i not in set(new_partitions)
        ]
        symbols = store.symbols
        minsup_count = max(1, math.ceil(config.min_support * store.n))

        union: set[Body] = set(state["union"])
        union.update(_mine_locals(store, new_partitions, config, symbols))
        obs.count("partition.union_candidates", len(union))

        counted = _prune_union(union)
        head_ids = symbols.candidate_head_ids
        old_counted_pos = {body: k for k, body in enumerate(state["counted"])}
        body_counts_arr = np.zeros(len(counted), dtype=np.int64)
        pair_counts = np.zeros((len(counted), len(head_ids)), dtype=np.int64)
        delta: list[Body] = []
        delta_rows: list[int] = []
        for k, body in enumerate(counted):
            old_row = old_counted_pos.get(body)
            if old_row is None:
                delta.append(body)
                delta_rows.append(k)
            else:
                body_counts_arr[k] = state["body_counts"][body]
                pair_counts[k] = state["pair_counts"][old_row]
        obs.count("partition.delta_candidates", len(delta))
        # New partitions contribute to every candidate; old partitions
        # are re-scanned only for the delta.
        _count_partitions(
            store, new_partitions, counted, head_ids, body_counts_arr, pair_counts
        )
        if delta:
            delta_body_counts = np.zeros(len(delta), dtype=np.int64)
            delta_pair_counts = np.zeros(
                (len(delta), len(head_ids)), dtype=np.int64
            )
            _count_partitions(
                store,
                old_partitions,
                delta,
                head_ids,
                delta_body_counts,
                delta_pair_counts,
            )
            for pos, k in enumerate(delta_rows):
                body_counts_arr[k] += delta_body_counts[pos]
                pair_counts[k] += delta_pair_counts[pos]

        head_totals = dict(state["head_totals"])
        _extend_head_totals(store, new_partitions, head_totals)

        return _finish(
            store,
            config,
            minsup_count,
            union,
            counted,
            body_counts_arr,
            pair_counts,
            head_totals,
            stored_profits=state["pair_profits"],
            stored_masks=state["emitted_masks"],
            new_partitions=tuple(new_partitions),
        )


def _finish(
    store: ChunkedTransactionStore,
    config: MinerConfig,
    minsup_count: int,
    union: set[Body],
    counted: list[Body],
    body_counts_arr: "numpy.ndarray",
    pair_counts: "numpy.ndarray",
    head_totals: dict[int, tuple[int, float]],
    stored_profits: dict[tuple[Body, int], float],
    stored_masks: dict[Body, int],
    new_partitions: tuple[int, ...],
) -> MiningResult:
    """Shared tail of mine and refresh: profits, emission, state save."""
    symbols = store.symbols
    head_ids = symbols.candidate_head_ids
    head_col = {hid: j for j, hid in enumerate(head_ids)}
    global_head_counts = store.global_head_counts()

    body_counts = {
        body: int(count) for body, count in zip(counted, body_counts_arr)
    }
    frequent_bodies = [
        body for body in counted if body_counts[body] >= minsup_count
    ]
    obs.count("partition.globally_frequent", len(frequent_bodies))
    frequent_heads = [
        hid
        for hid in head_ids
        if global_head_counts.get(hid, 0) >= minsup_count
    ]
    pair_counts_of = {
        (body, hid): int(pair_counts[k, head_col[hid]])
        for k, body in enumerate(counted)
        for hid in frequent_heads
    }

    needed = _needed_pairs(
        config,
        minsup_count,
        frequent_bodies,
        body_counts,
        pair_counts_of,
        frequent_heads,
        symbols.gsales,
    )
    all_partitions = list(range(store.n_partitions))
    new_set = set(new_partitions)
    old_partitions = [i for i in all_partitions if i not in new_set]
    # Pairs with a stored sum already cover every old partition; fresh
    # pairs catch up over the old history first, then every needed pair
    # extends over the new partitions — keeping each accumulation one
    # sequential sum in ascending global transaction order.  On a full
    # mine nothing is stored and "old" is everything.
    pair_profits: dict[tuple[Body, int], float] = {}
    fresh: dict[tuple[Body, int], float] = {}
    for pair in needed:
        stored = stored_profits.get(pair)
        if stored is not None:
            pair_profits[pair] = stored
        else:
            fresh[pair] = 0.0
    obs.count("partition.profit_pairs", len(needed))
    obs.count("partition.profit_pairs_fresh", len(fresh))
    _accumulate_profits(store, old_partitions, fresh)
    pair_profits.update(fresh)
    _accumulate_profits(store, list(new_partitions), pair_profits)

    index = PartitionedIndex(store)
    scored, body_ids_by_order, emitted_bodies = _emit(
        index,
        config,
        minsup_count,
        frequent_bodies,
        body_counts,
        pair_counts_of,
        pair_profits,
        frequent_heads,
    )
    # Global matched-transaction masks for the emitted bodies: stored
    # masks already cover the old partitions; only bodies emitted for
    # the first time re-scan history.
    emitted_masks: dict[Body, int] = {}
    missing: dict[Body, int] = {}
    for body in emitted_bodies:
        stored_mask = stored_masks.get(body)
        if stored_mask is not None:
            emitted_masks[body] = stored_mask
        else:
            missing[body] = 0
    _collect_masks(store, old_partitions, missing)
    emitted_masks.update(missing)
    _collect_masks(store, list(new_partitions), emitted_masks)
    body_tid_masks = {
        rule_order: emitted_masks[body]
        for rule_order, body in body_ids_by_order.items()
    }

    default_rule = _build_default_rule(index, len(scored), head_totals)
    body_ids_by_order[len(scored)] = ()
    result = MiningResult(
        index=index,  # type: ignore[arg-type]
        scored_rules=scored,
        default_rule=default_rule,
        body_tid_masks=body_tid_masks,
        frequent_body_count=len(frequent_bodies),
        body_ids_by_order=body_ids_by_order,
        minsup_count=minsup_count,
    )
    _save_state(
        store,
        config,
        union,
        counted,
        body_counts_arr,
        pair_counts,
        head_totals,
        pair_profits,
        emitted_masks,
    )
    return result


def mine_partitioned_db(
    db: TransactionDB,
    moa: MOAHierarchy,
    profit_model: ProfitModel,
    config: MinerConfig,
) -> MiningResult:
    """Mine an in-RAM database through the out-of-core machinery.

    Spills ``db`` into a partitioned store — at ``config.store_dir`` if
    set (kept for later :func:`refresh_store` runs), else a temporary
    directory owned by the returned result's index — then runs the SON
    two-pass mine.  This is what ``MinerConfig(backend="ooc")`` routes
    to.
    """
    resolve_backend("ooc", len(db))  # loud, consistent numpy gate
    partition_size = config.partition_size or DEFAULT_PARTITION_SIZE
    tmp: tempfile.TemporaryDirectory | None = None
    if config.store_dir is not None:
        root = Path(config.store_dir)
        if (root / "manifest.json").exists():
            raise MiningError(
                f"{root}: already contains a transaction store; refresh it "
                "or point store_dir at an empty directory"
            )
    else:
        tmp = tempfile.TemporaryDirectory(prefix="repro-ooc-")
        root = Path(tmp.name)
    store = ChunkedTransactionStore.build(
        root,
        db,
        moa,
        profit_model,
        partition_size=partition_size,
        max_resident_mb=config.max_resident_mb,
    )
    result = mine_store(store, config)
    if tmp is not None:
        result.index._tmp = tmp  # type: ignore[union-attr]
    return result
