"""Generalized association-rule mining over MOA(H) (Section 3.1).

The miner follows the multi-level association mining of Srikant & Agrawal
(VLDB'95) / Han & Fu (VLDB'95) that the paper adopts, specialised to profit
mining's rule shape: bodies are ancestor-free sets of generalized non-target
sales, heads are single ``⟨target item, promotion code⟩`` pairs.

Implementation notes
--------------------
* Every transaction is *extended* once: its non-target sales are replaced by
  the set of all their generalizations under MOA(H) (the root concept
  excluded), and its target sale by the set of heads that would hit it.  A
  body matches a transaction iff it is a subset of the extended set, so all
  support counting reduces to set intersections.
* Tid-sets are Python integers used as bitmasks; intersection is ``&`` and
  support is ``int.bit_count()``, which keeps the level-wise Apriori passes
  fast without any native-code dependency.  On large databases the
  selectable *dense* backend (``MinerConfig.backend``) mirrors the masks
  into the chunked ``uint64`` matrices of
  :mod:`repro.core.engine.kernel` and evaluates whole candidate batches
  as vectorized AND + popcount; the big-int path remains the
  no-dependency fallback and the two backends produce bit-identical
  results (see ``docs/ALGORITHMS.md`` §9).
* Candidate bodies are kept ancestor-free (Definition 4).  Rejecting
  subsuming *pairs* at level 2 suffices: any larger body containing such a
  pair fails the standard all-subsets-frequent check.
* The credited profit of each (transaction, head) pair is precomputed with
  the configured :class:`~repro.core.profit.ProfitModel`, so mining under
  saving MOA, buying MOA or binary (CONF) profit differs only in one table.

The :class:`TransactionIndex` built here is reused verbatim by the covering
tree and the cut-optimal pruning, which need the same masks and profit
tables.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.core.engine.kernel import (
    BACKENDS,
    DenseBitsetKernel,
    map_chunks,
    resolve_backend,
    resolve_jobs,
)
from repro.core.engine.symbols import SymbolTable
from repro.core.generalized import GKind, GSale
from repro.core.moa import MOAHierarchy
from repro.core.profit import ProfitModel
from repro.core.rules import Rule, RuleStats, ScoredRule
from repro.core.sales import Sale, TransactionDB
from repro.errors import MiningError, ValidationError
from repro.obs import trace as obs

__all__ = [
    "MinerConfig",
    "TransactionIndex",
    "MiningResult",
    "mine_rules",
    "filter_mining_result",
]


#: Dense-backend batch sizes.  Join chunks bound peak memory — a chunk
#: gathers two ``(chunk, n_chunks)`` uint64 matrices (~16 MB each at 1024
#: pairs × 100k transactions) no matter how many candidates a level has;
#: emission chunks amortize the per-batch Python overhead while keeping
#: the (bodies × heads) count matrix small.  Both are pure performance
#: knobs: results are identical at any chunking.
_JOIN_CHUNK = 1024
_EMIT_CHUNK = 256


def _positions_to_mask(positions: list[int], n: int) -> int:
    """Bitmask with the given transaction positions set (one conversion).

    Builds a little-endian byte buffer and converts once — O(n) instead of
    the O(n²) of repeated single-bit ORs on a growing int.
    """
    buffer = bytearray((n + 7) // 8)
    for pos in positions:
        buffer[pos >> 3] |= 1 << (pos & 7)
    return int.from_bytes(buffer, "little")


@dataclass(frozen=True)
class MinerConfig:
    """Thresholds and limits for rule generation.

    Parameters
    ----------
    min_support:
        Minimum ``Supp(body ∪ {head})`` as a fraction of the database.  The
        paper requires this for support-based pruning.
    min_confidence:
        Optional minimum ``Conf``; 0 disables (the paper folds confidence
        into ``Prof_re`` instead of thresholding it).
    min_rule_profit:
        Optional minimum ``Prof_ru``; valid as a pruning threshold only when
        all target items have non-negative profit (Section 3.1).
    max_body_size:
        Cap on ``|body|``; bounds the level-wise search.
    max_candidates_per_level:
        Safety valve against candidate explosions at very low supports.
    backend:
        Support-counting backend: ``"bigint"`` (Python integer bitmasks,
        no dependencies), ``"dense"`` (the chunked ``uint64`` kernel of
        :mod:`repro.core.engine.kernel`, requires the ``numpy`` extra) or
        ``"auto"`` (dense on databases of at least
        :data:`~repro.core.engine.kernel.DENSE_MIN_TRANSACTIONS`
        transactions when numpy is available, big-int otherwise).  The
        backends produce bit-identical results.
    n_jobs:
        Worker threads for within-mine candidate-batch evaluation on the
        dense backend (``None``: ``$REPRO_JOBS`` or sequential).  A pure
        performance knob — results are identical at any setting.  The
        big-int backend ignores it: its per-candidate work happens under
        the GIL, where threads cannot help.  The out-of-core backend
        uses it to mine partitions in parallel during SON pass 1.
    partition_size:
        Transactions per partition for the out-of-core backend (``None``:
        :data:`~repro.core.engine.store.DEFAULT_PARTITION_SIZE`).  A pure
        performance/memory knob — results are identical at any
        partitioning.
    max_resident_mb:
        Resident-memory budget for the out-of-core backend's loaded
        partitions (``None``: the store's default).  Loaded partitions
        are LRU-evicted above it; purely a memory knob.
    store_dir:
        Where the out-of-core backend spills its partitioned store
        (``None``: a temporary directory deleted with the mining
        result).  Point it at a persistent directory to enable
        incremental refresh (:func:`repro.core.partition.refresh_store`)
        later.
    """

    min_support: float = 0.01
    min_confidence: float = 0.0
    min_rule_profit: float = 0.0
    max_body_size: int = 3
    max_candidates_per_level: int = 2_000_000
    algorithm: str = "apriori"
    backend: str = "auto"
    n_jobs: int | None = None
    partition_size: int | None = None
    max_resident_mb: float | None = None
    store_dir: str | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in ("apriori", "fpgrowth"):
            raise ValidationError(
                f"algorithm must be 'apriori' or 'fpgrowth', got "
                f"{self.algorithm!r}"
            )
        if self.backend not in BACKENDS:
            raise ValidationError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.n_jobs is not None and self.n_jobs < 1:
            raise ValidationError(
                f"n_jobs must be >= 1 (or None for $REPRO_JOBS), got {self.n_jobs}"
            )
        if not 0 < self.min_support <= 1:
            raise ValidationError(
                f"min_support must be in (0, 1], got {self.min_support}"
            )
        if not 0 <= self.min_confidence <= 1:
            raise ValidationError(
                f"min_confidence must be in [0, 1], got {self.min_confidence}"
            )
        if self.min_rule_profit < 0:
            raise ValidationError(
                f"min_rule_profit must be non-negative, got {self.min_rule_profit}"
            )
        if self.max_body_size < 1:
            raise ValidationError(
                f"max_body_size must be at least 1, got {self.max_body_size}"
            )
        if self.max_candidates_per_level < 1:
            raise ValidationError("max_candidates_per_level must be positive")
        if self.partition_size is not None and self.partition_size < 1:
            raise ValidationError(
                f"partition_size must be >= 1, got {self.partition_size}"
            )
        if self.max_resident_mb is not None and self.max_resident_mb <= 0:
            raise ValidationError(
                f"max_resident_mb must be positive, got {self.max_resident_mb}"
            )


@dataclass
class TransactionIndex:
    """Preprocessed, interned view of a transaction database.

    Generalized sales are named by the dense ids of a shared
    :class:`~repro.core.engine.symbols.SymbolTable` (sorted by their
    canonical key, so ids are deterministic); the interning, subsumption
    tables and candidate-head order are borrowed from the table rather
    than rebuilt per database — every fold and profit-model twin over one
    generalization engine shares them.  All masks index transactions by
    their position in ``db.transactions``.
    """

    db: TransactionDB
    moa: MOAHierarchy
    profit_model: ProfitModel
    #: The shared symbol table; defaults to the MOA engine's canonical one
    #: (:meth:`SymbolTable.of`).  Injecting a different table is only for
    #: tests — it must name the same world.
    symbols: SymbolTable | None = None
    n: int = field(init=False)
    ext_sets: list[frozenset[int]] = field(init=False, default_factory=list)
    body_masks: dict[int, int] = field(init=False, default_factory=dict)
    head_sets: list[frozenset[int]] = field(init=False, default_factory=list)
    head_masks: dict[int, int] = field(init=False, default_factory=dict)
    head_profits: list[dict[int, float]] = field(init=False, default_factory=list)
    #: Frequent-body discovery results keyed by the structural parameters
    #: (minsup count, body-size cap, candidate cap, algorithm).  Body
    #: discovery never looks at credited profit, so profit-model twins
    #: share this dict by reference and a CONF mine reuses the level-wise
    #: search its PROF sibling already ran.
    body_cache: dict[tuple, tuple[list[tuple[tuple[int, ...], int]], int]] = field(
        init=False, default_factory=dict, repr=False, compare=False
    )
    #: Emitted-rule skeletons keyed by (discovery key, minsup count,
    #: min confidence).  When no rule-profit threshold applies, which
    #: rules pass is decided entirely by structural counts, so the rule
    #: list (bodies, heads, orders, masks — everything except the credited
    #: profit) is identical across profit models and replayed by twins.
    emit_cache: dict[
        tuple, list[tuple["Rule", tuple[int, ...], int, int, int, int, int]]
    ] = field(init=False, default_factory=dict, repr=False, compare=False)
    #: Per-body interned closures (union of the members' closure tables),
    #: reused by every covering-tree build over this index.
    closure_cache: dict[tuple[int, ...], frozenset[int]] = field(
        init=False, default_factory=dict, repr=False, compare=False
    )
    #: Per-body id tuples frozen once (``frozenset(ids)``), companion to
    #: ``closure_cache`` for the covering tree's interning pass.
    frozen_body_cache: dict[tuple[int, ...], frozenset[int]] = field(
        init=False, default_factory=dict, repr=False, compare=False
    )
    #: ``Prof_pr`` memo keyed by ``(cf, head id, cover mask)``, shared by
    #: every pruning pass over this index: sweep levels derived from one
    #: base mine re-evaluate many identical (head, coverage) pairs.  Profit
    #: values depend on this index's profit model, so the cache is *not*
    #: shared with :meth:`with_profit_model` twins.
    projected_profit_cache: dict[tuple[float, int, int], float] = field(
        init=False, default_factory=dict, repr=False, compare=False
    )
    #: Holder for the lazily built :class:`DenseBitsetKernel` (key
    #: ``"kernel"``).  A dict rather than a plain attribute so
    #: profit-model twins share the kernel *by reference* no matter which
    #: twin builds it first — the kernel mirrors the structural masks
    #: only, never credited profit.
    kernel_cache: dict[str, DenseBitsetKernel] = field(
        init=False, default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.n = len(self.db)
        if self.n == 0:
            raise MiningError("cannot mine an empty transaction database")
        if self.symbols is None:
            self.symbols = SymbolTable.of(self.moa)
        elif self.symbols.moa.use_moa != self.moa.use_moa:
            raise MiningError(
                "injected SymbolTable disagrees with the MOA engine on use_moa"
            )
        self._index_transactions()

    # ------------------------------------------------------------------
    # Views borrowed from the shared symbol table
    # ------------------------------------------------------------------
    @property
    def gsales(self) -> list[GSale]:
        """Dense id → generalized sale (the shared table's symbol list)."""
        assert self.symbols is not None
        return self.symbols.gsales

    @property
    def gsale_ids(self) -> dict[GSale, int]:
        """Generalized sale → dense id (the shared table's interning)."""
        assert self.symbols is not None
        return self.symbols.ids

    @property
    def candidate_head_ids(self) -> list[int]:
        """Recommendable head ids, most-specific-first.

        The order realizes the paper's "generated before" tie-breaker:
        heads are enumerated deepest in the per-item MOA(H) sub-hierarchy
        first (least favorable price first), so when two heads tie on
        recommendation profit and support — systematic under MOA, where
        every cheaper price hits a superset — the most specific
        recommendation wins.
        """
        assert self.symbols is not None
        return self.symbols.candidate_head_ids

    @property
    def ancestor_ids(self) -> list[frozenset[int]]:
        """Per-gsale proper-ancestor id sets (shared subsumption table)."""
        assert self.symbols is not None
        return self.symbols.ancestor_ids

    @property
    def closure_ids(self) -> list[frozenset[int]]:
        """Per-gsale reflexive closure id sets (shared subsumption table)."""
        assert self.symbols is not None
        return self.symbols.closure_ids

    def _index_transactions(self) -> None:
        # Accumulate per-gsale transaction positions first and build each
        # bitmask once at the end: OR-ing single bits into a growing Python
        # int copies the whole mask every time (quadratic at 100K
        # transactions), whereas one bytes conversion per gsale is linear.
        assert self.symbols is not None
        sale_ids = self.symbols.sale_ids
        head_ids = self.symbols.head_ids
        body_positions: dict[int, list[int]] = {}
        head_positions: dict[int, list[int]] = {}
        for pos, transaction in enumerate(self.db):
            ext_ids: set[int] = set()
            for sale in transaction.nontarget_sales:
                ext_ids.update(sale_ids(sale))
            ext = frozenset(ext_ids)
            self.ext_sets.append(ext)
            for gid in ext:
                body_positions.setdefault(gid, []).append(pos)

            heads = frozenset(head_ids(transaction.target_sale))
            self.head_sets.append(heads)
            for hid in heads:
                head_positions.setdefault(hid, []).append(pos)
        self.head_profits = self._credited_profits(self.profit_model)
        self.body_masks = {
            gid: _positions_to_mask(positions, self.n)
            for gid, positions in body_positions.items()
        }
        self.head_masks = {
            hid: _positions_to_mask(positions, self.n)
            for hid, positions in head_positions.items()
        }

    # ------------------------------------------------------------------
    @classmethod
    def with_profit_model(
        cls, base: "TransactionIndex", profit_model: ProfitModel
    ) -> "TransactionIndex":
        """A twin of ``base`` rebound to a different profit model.

        Everything *structural* — gsale interning, extended transaction
        sets, body/head bitmasks, the candidate-head order — depends only
        on (db, MOA), not on how hit profit is credited, so it is shared
        by reference with ``base``; only the per-transaction credited-
        profit tables are recomputed.  This is how PROF and CONF variants
        over the same fold split the cost of one index build.

        The shared structures are treated as immutable after
        construction; neither twin may mutate them.
        """
        index = cls.__new__(cls)
        index.db = base.db
        index.moa = base.moa
        index.profit_model = profit_model
        index.symbols = base.symbols
        index.n = base.n
        index.ext_sets = base.ext_sets
        index.body_masks = base.body_masks
        index.head_sets = base.head_sets
        index.head_masks = base.head_masks
        index.body_cache = base.body_cache
        index.emit_cache = base.emit_cache
        index.closure_cache = base.closure_cache
        index.frozen_body_cache = base.frozen_body_cache
        index.kernel_cache = base.kernel_cache
        # Not shared: projected profits credit hits with the profit model.
        index.projected_profit_cache = {}
        index.head_profits = index._credited_profits(profit_model)
        return index

    def _credited_profits(
        self, profit_model: ProfitModel
    ) -> list[dict[int, float]]:
        """Per-transaction ``{head id: credited profit}`` tables.

        A transaction's heads and their credits depend only on its target
        sale, and a database has few distinct target sales, so the table
        is computed once per distinct (frozen, hashable) target sale and
        the same dict is shared by every transaction with that sale.  Each
        value comes from the same ``credited_profit`` call as an unshared
        table would; readers only ever read the dicts.
        """
        gsales = self.gsales
        catalog = self.db.catalog
        credited = profit_model.credited_profit
        tables: dict[Sale, dict[int, float]] = {}
        out: list[dict[int, float]] = []
        for transaction, heads in zip(self.db, self.head_sets):
            target = transaction.target_sale
            profits = tables.get(target)
            if profits is None:
                profits = {
                    hid: credited(gsales[hid], target, catalog) for hid in heads
                }
                tables[target] = profits
            out.append(profits)
        return out

    # ------------------------------------------------------------------
    # Queries shared with covering / pruning
    # ------------------------------------------------------------------
    def kernel(self) -> DenseBitsetKernel:
        """The dense chunked-bitset mirror of this index's masks.

        Built lazily on first use and cached (shared by reference with
        profit-model twins — the kernel is structural).  Raises
        :class:`~repro.errors.MiningError` when numpy is unavailable;
        callers gate on the resolved backend, not on this method.
        """
        kernel = self.kernel_cache.get("kernel")
        if kernel is None:
            obs.cache_event("kernel.mask_matrix", misses=1)
            kernel = DenseBitsetKernel(self.n, self.body_masks)
            self.kernel_cache["kernel"] = kernel
        else:
            obs.cache_event("kernel.mask_matrix", hits=1)
        return kernel

    def mask_positions(self, mask: int) -> list[int]:
        """Set-bit positions of ``mask``, ascending (list form).

        Same positions in the same order as :meth:`iter_bits`; when the
        dense kernel has been built the extraction is vectorized
        (``unpackbits`` instead of a per-bit Python loop), which matters
        for pruning's per-node coverage scans on large databases.
        Consumers summing credited profit over the positions accumulate
        in the same order either way, so the floats are identical.
        """
        kernel = self.kernel_cache.get("kernel")
        if kernel is not None:
            return kernel.positions(mask).tolist()
        return list(self.iter_bits(mask))

    def body_mask(self, body_ids: Sequence[int]) -> int:
        """Bitmask of transactions matched by the body ``body_ids``.

        The empty body matches every transaction (the default rule's
        semantics).  Non-empty bodies start from the first gsale's mask
        rather than a freshly built all-ones mask, which would cost an
        O(n)-bit allocation per call on large databases.  Multi-member
        bodies route through the dense kernel when it is already built —
        the chunked AND avoids one big-int allocation per member.
        """
        if not body_ids:
            return (1 << self.n) - 1
        if len(body_ids) > 1:
            kernel = self.kernel_cache.get("kernel")
            if kernel is not None:
                return kernel.intersect_to_int(body_ids)
        mask = self.body_masks.get(body_ids[0], 0)
        for gid in body_ids[1:]:
            if not mask:
                return 0
            mask &= self.body_masks.get(gid, 0)
        return mask

    def gsale_id(self, gsale: GSale) -> int:
        """Interned id of ``gsale`` (raises for unseen generalized sales)."""
        try:
            return self.gsale_ids[gsale]
        except KeyError:
            raise MiningError(
                f"generalized sale {gsale.describe()} not present in index"
            ) from None

    def hit_profit(self, transaction_pos: int, head_id: int) -> float:
        """Credited profit of ``head_id`` on transaction ``transaction_pos``.

        Zero when the head does not hit the transaction's target sale,
        matching the paper's ``p(r, t)``.
        """
        return self.head_profits[transaction_pos].get(head_id, 0.0)

    def head_hits_mask(self, head_id: int) -> int:
        """Bitmask of transactions whose target sale ``head_id`` hits."""
        return self.head_masks.get(head_id, 0)

    def recorded_profit(self, transaction_pos: int) -> float:
        """Recorded profit of the transaction's target sale."""
        return self.db[transaction_pos].recorded_target_profit(self.db.catalog)

    @staticmethod
    def iter_bits(mask: int) -> Iterator[int]:
        """Yield the positions of the set bits of ``mask``, ascending."""
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low


@dataclass
class MiningResult:
    """Output of :func:`mine_rules`: the rule set ``R`` plus shared state."""

    index: TransactionIndex
    scored_rules: list[ScoredRule]
    default_rule: ScoredRule
    body_tid_masks: dict[int, int]  # rule.order -> matched-transaction mask
    frequent_body_count: int
    #: rule.order -> interned body ids (the default rule maps to ``()``).
    #: Lets downstream passes (covering) reuse the miner's interning
    #: instead of re-hashing GSale objects; ``None`` for results built by
    #: hand without the mapping.
    body_ids_by_order: dict[int, tuple[int, ...]] | None = None
    #: ``all_rules`` in MPF rank order, filled in by the first pass that
    #: sorts them (covering) and reused by every later consumer.  Filtered
    #: results derive theirs from the base run's order — renumbering
    #: preserves the rank order, so no re-sort is needed per sweep level.
    ranked_cache: list[ScoredRule] | None = None
    #: Orders of rules known *not* to be dominated (covering's step-1
    #: survivors), recorded by ``build_covering_tree`` and translated by
    #: :func:`filter_mining_result`.  Sound under support raising: a
    #: dominator in the filtered set is also a base rule, and transitivity
    #: lifts any base dominator to a base *surviving* dominator, so a rule
    #: undominated at the base support stays undominated at every higher
    #: level.  ``None`` means no covering pass has run yet.
    undominated_orders: frozenset[int] | None = None
    #: The absolute support count this result was mined (or filtered) at:
    #: ``⌈min_support · n⌉``, floored at 1.  :func:`filter_mining_result`
    #: refuses to derive a result *below* this threshold — the base run
    #: never generated those rules.  ``None`` on results assembled by
    #: hand, which disables the guard.
    minsup_count: int | None = None

    @property
    def all_rules(self) -> list[ScoredRule]:
        """Mined rules followed by the default rule (generation order)."""
        return [*self.scored_rules, self.default_rule]


def mine_rules(
    db: TransactionDB,
    moa: MOAHierarchy,
    profit_model: ProfitModel,
    config: MinerConfig,
    index: TransactionIndex | None = None,
) -> MiningResult:
    """Generate the rule set ``R`` of Section 3.1.

    Runs a level-wise search for frequent ancestor-free bodies over the
    extended transactions, emits every (body, head) combination passing the
    support / confidence / rule-profit thresholds, and appends the default
    rule ``∅ → g`` with ``g`` maximizing ``Prof_re(∅ → g)``.

    ``index`` injects a prebuilt :class:`TransactionIndex` (e.g. from a
    :class:`~repro.core.index_cache.FitCache`), skipping the extension /
    interning / mask-building pass — the dominant fixed cost when the same
    fold is mined repeatedly.  It must have been built over exactly this
    ``db`` with this ``profit_model``.
    """
    trace = obs.current_trace()
    if trace is None:
        return _mine_rules_impl(db, moa, profit_model, config, index)
    with trace.span("mine", algorithm=config.algorithm):
        result = _mine_rules_impl(db, moa, profit_model, config, index)
        trace.count("mine.rules_emitted", len(result.scored_rules))
        trace.count("mine.frequent_bodies", result.frequent_body_count)
    return result


def _mine_rules_impl(
    db: TransactionDB,
    moa: MOAHierarchy,
    profit_model: ProfitModel,
    config: MinerConfig,
    index: TransactionIndex | None,
) -> MiningResult:
    if config.backend == "ooc":
        # The out-of-core SON miner never builds an in-RAM index — that
        # is its whole point — so an injected one cannot be honoured.
        if index is not None:
            raise MiningError(
                "backend='ooc' mines from a partitioned store and cannot "
                "reuse an injected in-RAM TransactionIndex"
            )
        from repro.core.partition import mine_partitioned_db

        return mine_partitioned_db(db, moa, profit_model, config)
    if index is None:
        with obs.span("mine.index_build"):
            index = TransactionIndex(db=db, moa=moa, profit_model=profit_model)
    elif index.db is not db:
        raise MiningError(
            "injected TransactionIndex was built over a different database"
        )
    elif index.profit_model.name != profit_model.name:
        raise MiningError(
            f"injected TransactionIndex credits profit with "
            f"{index.profit_model.name!r}, not {profit_model.name!r}"
        )
    elif index.moa.use_moa != moa.use_moa:
        raise MiningError(
            "injected TransactionIndex disagrees with the miner on use_moa"
        )
    minsup_count = max(1, math.ceil(config.min_support * index.n))

    # Support-counting backend for this mine.  The dense kernel mirrors the
    # big-int masks into chunked uint64 matrices (built once per index and
    # shared with twins); ``n_jobs`` only matters there — the big-int path
    # never leaves the GIL, so threads cannot help it.
    backend = resolve_backend(config.backend, index.n)
    obs.annotate(backend=backend)
    obs.count(f"mine.backend.{backend}")
    kernel = None
    if backend == "dense":
        with obs.span("mine.mask_matrix"):
            kernel = index.kernel()
    n_jobs = resolve_jobs(config.n_jobs) if kernel is not None else 1
    positions_of = index.mask_positions

    frequent_heads = [
        hid
        for hid in index.candidate_head_ids
        if index.head_hits_mask(hid).bit_count() >= minsup_count
    ]

    # Per-head profit rows for the emission loop.  ``prof_at`` re-keys the
    # per-transaction credit tables by position so the hot sum is one dict
    # per head instead of one per transaction; ``totals`` pre-adds each
    # head's full credit in the same ascending-position order, so a body
    # that matches every hit of a head reuses the sum bit-for-bit.
    head_prof_at: dict[int, dict[int, float]] = {}
    head_totals: dict[int, tuple[int, float]] = {}
    profits_nonnegative = True
    for hid in frequent_heads:
        prof_at = {
            pos: index.head_profits[pos].get(hid, 0.0)
            for pos in positions_of(index.head_hits_mask(hid))
        }
        head_prof_at[hid] = prof_at
        head_totals[hid] = (len(prof_at), sum(prof_at.values()))
        if profits_nonnegative and prof_at and min(prof_at.values()) < 0.0:
            profits_nonnegative = False
    # Distinct (head, hit-mask) pairs are far rarer than (body, head)
    # candidates — many bodies intersect a head identically — so the
    # credited-profit sum is memoized on the pair.
    profit_memo: dict[tuple[int, int], float] = {}

    scored: list[ScoredRule] = []
    body_tid_masks: dict[int, int] = {}
    body_ids_by_order: dict[int, tuple[int, ...]] = {}
    order = 0
    frequent_body_count = 0

    # Hot-loop tables: promo-form item per gsale id (None otherwise), the
    # frequent heads with their masks/nodes, and local aliases that keep
    # attribute lookups out of the per-candidate path.
    gsales = index.gsales
    promo_node = [
        g.node if g.kind is GKind.PROMO else None for g in gsales
    ]
    head_rows = [
        (hid, index.head_hits_mask(hid), gsales[hid].node)
        for hid in frequent_heads
    ]
    min_confidence = config.min_confidence
    min_rule_profit = config.min_rule_profit
    n_total = index.n

    def rule_profit_of(hid: int, hit_mask: int, n_hits: int) -> float:
        head_count, head_total = head_totals[hid]
        if n_hits == head_count:
            return head_total
        memo_key = (hid, hit_mask)
        cached = profit_memo.get(memo_key)
        if cached is None:
            # ``positions_of`` yields the same ascending order as
            # ``iter_bits``, so the sequential sum is the same float on
            # either backend.
            cached = sum(
                map(head_prof_at[hid].__getitem__, positions_of(hit_mask))
            )
            profit_memo[memo_key] = cached
        return cached

    # Skeletons recorded for profit-model twins (see ``emit_cache``).
    skeletons: list[tuple[Rule, tuple[int, ...], int, int, int, int, int]] = []

    def emit_rules_for_body(
        body_ids: tuple[int, ...],
        body_mask: int,
        hit_counts: Sequence[int] | None = None,
    ) -> None:
        nonlocal order
        n_matched = body_mask.bit_count()
        body_gsales: frozenset[GSale] | None = None
        # Items the body mentions in promo form.  A head for such an item
        # would violate the body/head separation that Rule.__post_init__
        # enforces — possible when a generalization engine lifts target
        # promo-forms into basket extensions — so the combination is
        # skipped rather than aborting the whole mining run.
        blocked_items = {
            node for gid in body_ids if (node := promo_node[gid]) is not None
        }
        for col, (hid, head_mask, head_node) in enumerate(head_rows):
            if head_node in blocked_items:
                continue
            if hit_counts is None:
                hit_mask = body_mask & head_mask
                n_hits = hit_mask.bit_count()
                if n_hits < minsup_count:
                    continue
                if n_matched and n_hits / n_matched < min_confidence:
                    continue
            else:
                # The dense driver already counted every (body, head)
                # pair; the exact hit mask is only materialized for the
                # few threshold survivors.
                n_hits = hit_counts[col]
                if n_hits < minsup_count:
                    continue
                if n_matched and n_hits / n_matched < min_confidence:
                    continue
                hit_mask = body_mask & head_mask
            rule_profit = rule_profit_of(hid, hit_mask, n_hits)
            if rule_profit < min_rule_profit:
                continue
            if body_gsales is None:
                body_gsales = frozenset(gsales[gid] for gid in body_ids)
            rule = Rule(body=body_gsales, head=gsales[hid], order=order)
            stats = RuleStats(
                n_matched=n_matched,
                n_hits=n_hits,
                rule_profit=rule_profit,
                n_total=n_total,
            )
            body_tid_masks[order] = body_mask
            body_ids_by_order[order] = body_ids
            scored.append(ScoredRule(rule=rule, stats=stats))
            skeletons.append(
                (rule, body_ids, hid, n_matched, n_hits, body_mask, hit_mask)
            )
            order += 1

    # Frequent-body discovery is independent of the profit model, so its
    # generation-ordered output is cached on the (structural) index and
    # shared between profit-model twins mining the same fold.
    discovery_key = (
        minsup_count,
        config.max_body_size,
        config.max_candidates_per_level,
        config.algorithm,
    )
    discovered = index.body_cache.get(discovery_key)
    if discovered is None:
        # A cached run at a *lower* threshold subsumes this one: frequent
        # bodies here are exactly its bodies meeting the raised count, in
        # the same generation order (filtering a sorted key set preserves
        # both the per-level sort and the join order, and a search that
        # did not explode at the lower threshold cannot explode above it).
        for (count, *rest), (bodies, _) in index.body_cache.items():
            if count <= minsup_count and tuple(rest) == discovery_key[1:]:
                ordered = [
                    (body, mask)
                    for body, mask in bodies
                    if mask.bit_count() >= minsup_count
                ]
                discovered = (ordered, len(ordered))
                index.body_cache[discovery_key] = discovered
                break
    # The thread pool (dense backend only) is shared by the join and the
    # emission drivers; numpy's AND/popcount loops release the GIL, so the
    # threads get real parallelism over the shared matrices.
    executor = (
        ThreadPoolExecutor(max_workers=n_jobs)
        if kernel is not None and n_jobs > 1
        else None
    )
    try:
        if discovered is None:
            obs.cache_event("mine.body_cache", misses=1)
            with obs.span("mine.discover"):
                ordered_bodies: list[tuple[tuple[int, ...], int]] = []
                if config.algorithm == "fpgrowth":
                    from repro.core.fpgrowth import frequent_bodies_fpgrowth

                    bodies = frequent_bodies_fpgrowth(
                        index, minsup_count, config, kernel=kernel
                    )
                    frequent_body_count = len(bodies)
                    ordered_bodies.extend(bodies.items())
                elif kernel is not None:
                    ordered_bodies, frequent_body_count = _discover_apriori_dense(
                        index, kernel, minsup_count, config, executor, n_jobs
                    )
                else:
                    # Level 1: frequent single generalized non-target sales.
                    level: dict[tuple[int, ...], int] = {}
                    for gid in sorted(index.body_masks):
                        mask = index.body_masks[gid]
                        if mask.bit_count() >= minsup_count:
                            level[(gid,)] = mask
                    frequent_body_count += len(level)
                    ordered_bodies.extend(level.items())
                    obs.count("mine.level1.candidates", len(index.body_masks))
                    obs.count("mine.level1.frequent", len(level))

                    size = 1
                    while level and size < config.max_body_size:
                        level = _next_level(
                            index, level, minsup_count, config, size
                        )
                        frequent_body_count += len(level)
                        ordered_bodies.extend(level.items())
                        size += 1
                index.body_cache[discovery_key] = (
                    ordered_bodies,
                    frequent_body_count,
                )
        else:
            ordered_bodies, frequent_body_count = discovered
            obs.cache_event("mine.body_cache", hits=1)

        # When the rule-profit threshold can never fire (no positive
        # threshold, no negative credits), which (body, head) pairs become
        # rules is decided entirely by structural counts — identical for
        # every profit model over this index — so a twin replays the
        # recorded skeletons (sharing the frozen Rule objects) and only
        # re-credits profit.  The same guard gates both storing and
        # replaying, each side checking its own credits.
        emit_key = (discovery_key, min_confidence)
        replayable = min_rule_profit <= 0 and profits_nonnegative
        replay = index.emit_cache.get(emit_key) if replayable else None
        if replay is not None:
            obs.cache_event("mine.emit_cache", hits=1)
            for rule, body_ids, hid, n_matched, n_hits, body_mask, hit_mask in replay:
                # The counts were validated when the skeleton was first
                # emitted and only the credited profit changes, so the stats
                # are assembled without re-running ``__post_init__``.
                stats = _stats_of(
                    n_matched, n_hits, rule_profit_of(hid, hit_mask, n_hits), n_total
                )
                body_tid_masks[rule.order] = body_mask
                body_ids_by_order[rule.order] = body_ids
                scored.append(ScoredRule(rule=rule, stats=stats))
            order = len(scored)
        else:
            obs.cache_event("mine.emit_cache", misses=1)
            with obs.span("mine.emit"):
                if kernel is not None and head_rows:
                    # Dense emission: one AND + popcount per head over a
                    # whole batch of body rows replaces a big-int ``&`` +
                    # ``bit_count()`` per (body, head) candidate; the
                    # Python filter loop below then only touches counts,
                    # preserving head order and the promo-guard semantics
                    # exactly.
                    head_matrix = kernel.pack_masks(
                        head_mask for _, head_mask, _ in head_rows
                    )

                    def count_chunk(start: int, stop: int) -> list[list[int]]:
                        rows = kernel.pack_masks(
                            mask for _, mask in ordered_bodies[start:stop]
                        )
                        return kernel.head_hit_counts(rows, head_matrix).tolist()

                    chunks = map_chunks(
                        count_chunk,
                        len(ordered_bodies),
                        _EMIT_CHUNK,
                        executor,
                        n_jobs,
                    )
                    for chunk_index, chunk_counts in enumerate(chunks):
                        base = chunk_index * _EMIT_CHUNK
                        for offset, hit_counts in enumerate(chunk_counts):
                            body_ids, mask = ordered_bodies[base + offset]
                            emit_rules_for_body(body_ids, mask, hit_counts)
                else:
                    for body_ids, mask in ordered_bodies:
                        emit_rules_for_body(body_ids, mask)
            if replayable:
                index.emit_cache[emit_key] = skeletons
    finally:
        if executor is not None:
            executor.shutdown(wait=True)

    default_rule = _build_default_rule(index, order, head_totals)
    body_ids_by_order[order] = ()
    return MiningResult(
        index=index,
        scored_rules=scored,
        default_rule=default_rule,
        body_tid_masks=body_tid_masks,
        frequent_body_count=frequent_body_count,
        body_ids_by_order=body_ids_by_order,
        minsup_count=minsup_count,
    )


def filter_mining_result(
    result: MiningResult, min_support: float
) -> MiningResult:
    """Derive the mining result at a *higher* minimum support by filtering.

    Itemset support is anti-monotone in the threshold: every body (and
    every (body, head) combination) frequent at ``min_support`` is also
    frequent at the lower support ``result`` was mined with, and the
    Apriori/FP-growth searches are complete over frequent bodies.  The rule
    set at ``min_support`` is therefore exactly the subset of ``result``'s
    rules whose hit count meets the raised threshold — ``n_hits ≥
    ⌈min_support · n⌉`` implies the body, head and combination supports all
    do (``n_hits ≤ min(n_matched, head support)``) — with generation order
    renumbered consecutively.  Confidence and rule-profit thresholds do not
    depend on the support level, so they are inherited from the base run.
    This is what lets a support sweep mine each (system, fold) cell once at
    the sweep's minimum and derive every higher level for free.

    The derived result is *identical* to mining at ``min_support``
    directly (same rules, stats, orders, tid masks and default rule)
    except for ``frequent_body_count``, which here counts only the
    distinct bodies among the surviving rules — a lower bound, since a
    direct run also counts frequent bodies that emit no rule.

    ``result`` must have been mined with the same configuration apart from
    ``min_support``; raising past the base threshold is the only supported
    direction — asking for a support whose absolute count falls *below*
    the base run's raises :class:`~repro.errors.MiningError`, since the
    base run never generated those rules and silently returning its rule
    set would present an incomplete result as complete.
    """
    index = result.index
    minsup_count = max(1, math.ceil(min_support * index.n))
    if result.minsup_count is not None and minsup_count < result.minsup_count:
        raise MiningError(
            f"cannot filter a mining result down to min_support="
            f"{min_support} (count {minsup_count}): the base run was mined "
            f"at count {result.minsup_count} and never generated the "
            f"rules below it; re-mine at the lower support instead"
        )
    base_ids = result.body_ids_by_order
    scored: list[ScoredRule] = []
    body_tid_masks: dict[int, int] = {}
    body_ids_by_order: dict[int, tuple[int, ...]] | None = (
        {} if base_ids is not None else None
    )
    # Orders are assigned consecutively at generation time (default last),
    # so base order → filtered rule is a flat list, not a dict.
    n_orders = result.default_rule.rule.order + 1
    if result.scored_rules:
        n_orders = max(n_orders, result.scored_rules[-1].rule.order + 1)
    new_of_base: list[ScoredRule | None] = [None] * n_orders
    base_undominated = result.undominated_orders
    undominated: set[int] | None = (
        set() if base_undominated is not None else None
    )
    for sr in result.scored_rules:
        if sr.stats.n_hits < minsup_count:
            continue
        order = len(scored)
        if undominated is not None and sr.rule.order in base_undominated:
            undominated.add(order)
        body_tid_masks[order] = result.body_tid_masks[sr.rule.order]
        if body_ids_by_order is not None and base_ids is not None:
            body_ids_by_order[order] = base_ids[sr.rule.order]
        if order == sr.rule.order:
            # Nothing dropped before this rule: the renumbering is the
            # identity so far and the scored rule is reused as-is.
            copy = sr
        else:
            copy = ScoredRule(rule=_with_order(sr.rule, order), stats=sr.stats)
            base_key = getattr(sr, "_rank_key", None)
            if base_key is not None:
                # Only the order component changes under renumbering.
                object.__setattr__(copy, "_rank_key", (*base_key[:3], order))
        scored.append(copy)
        new_of_base[sr.rule.order] = copy
    base_default = result.default_rule
    default_rule = ScoredRule(
        rule=Rule(
            body=frozenset(), head=base_default.rule.head, order=len(scored)
        ),
        stats=base_default.stats,
    )
    new_of_base[base_default.rule.order] = default_rule
    if undominated is not None and base_default.rule.order in base_undominated:
        undominated.add(default_rule.rule.order)
    # Interning is injective, so distinct id tuples count distinct bodies
    # without re-hashing frozensets of GSales.
    if body_ids_by_order is not None:
        frequent_body_count = len(set(body_ids_by_order.values()))
        body_ids_by_order[len(scored)] = ()
    else:
        frequent_body_count = len({sr.rule.body for sr in scored})
    # Renumbering is monotone in generation order and every other rank-key
    # component is unchanged, so the filtered rank order is the base rank
    # order restricted to the survivors — derive it instead of re-sorting.
    ranked_cache: list[ScoredRule] | None = None
    if result.ranked_cache is not None:
        ranked_cache = [
            kept
            for sr in result.ranked_cache
            if (kept := new_of_base[sr.rule.order]) is not None
        ]
    return MiningResult(
        index=index,
        scored_rules=scored,
        default_rule=default_rule,
        body_tid_masks=body_tid_masks,
        frequent_body_count=frequent_body_count,
        body_ids_by_order=body_ids_by_order,
        ranked_cache=ranked_cache,
        undominated_orders=(
            frozenset(undominated) if undominated is not None else None
        ),
        minsup_count=minsup_count,
    )


def _with_order(rule: Rule, order: int) -> Rule:
    """``rule`` renumbered to ``order``, skipping re-validation.

    The body/head separation was checked when ``rule`` was first built and
    does not depend on the order, so the copy is assembled directly instead
    of going through ``Rule.__post_init__`` — this runs once per surviving
    rule per derived support level.
    """
    copy = Rule.__new__(Rule)
    object.__setattr__(copy, "body", rule.body)
    object.__setattr__(copy, "head", rule.head)
    object.__setattr__(copy, "order", order)
    return copy


def _stats_of(
    n_matched: int, n_hits: int, rule_profit: float, n_total: int
) -> RuleStats:
    """A :class:`RuleStats` from already-validated counts, skipping init."""
    stats = RuleStats.__new__(RuleStats)
    set_field = object.__setattr__
    set_field(stats, "n_matched", n_matched)
    set_field(stats, "n_hits", n_hits)
    set_field(stats, "rule_profit", rule_profit)
    set_field(stats, "n_total", n_total)
    return stats


def _next_level(
    index: TransactionIndex,
    level: dict[tuple[int, ...], int],
    minsup_count: int,
    config: MinerConfig,
    size: int,
) -> dict[tuple[int, ...], int]:
    """Apriori join + prune from the frequent bodies of one level."""
    keys = sorted(level)
    next_level: dict[tuple[int, ...], int] = {}
    candidates = 0
    for i, left in enumerate(keys):
        for right in keys[i + 1 :]:
            if left[:-1] != right[:-1]:
                break  # sorted keys: the shared prefix can only shrink
            candidate = left + (right[-1],)
            candidates += 1
            if candidates > config.max_candidates_per_level:
                raise _explosion(size, config)
            if size == 1 and not _pair_is_ancestor_free(index, left[0], right[0]):
                continue
            if size > 1 and not _all_subsets_frequent(candidate, level):
                continue
            mask = level[left] & level[right]
            if mask.bit_count() >= minsup_count:
                next_level[candidate] = mask
    obs.count(f"mine.level{size + 1}.candidates", candidates)
    obs.count(f"mine.level{size + 1}.frequent", len(next_level))
    obs.count(f"mine.level{size + 1}.pruned", candidates - len(next_level))
    return next_level


def _explosion(size: int, config: MinerConfig, where: str = "") -> MiningError:
    """The candidate-cap error for the join from ``size`` to ``size + 1``."""
    return MiningError(
        f"candidate explosion at body size {size + 1}{where} "
        f"(> {config.max_candidates_per_level}); raise min_support "
        "or lower max_body_size"
    )


def _pair_is_ancestor_free(index: TransactionIndex, a: int, b: int) -> bool:
    """Definition 4's constraint checked on a candidate pair.

    Runs on the index's interned-id ancestor tables: integer set-membership
    instead of re-hashing GSale objects through the MOA engine, which this
    check — the level-2 join's inner loop — used to dominate with.
    """
    return a != b and a not in index.ancestor_ids[b] and b not in index.ancestor_ids[a]


def _all_subsets_frequent(
    candidate: tuple[int, ...], level: dict[tuple[int, ...], int]
) -> bool:
    """Standard Apriori prune: every (k−1)-subset must be frequent.

    The two subsets obtained by dropping one of the last two elements are
    the join parents and known frequent; checking the rest suffices.
    """
    for drop in range(len(candidate) - 2):
        subset = candidate[:drop] + candidate[drop + 1 :]
        if subset not in level:
            return False
    return True


def _discover_apriori_dense(
    index: TransactionIndex,
    kernel: DenseBitsetKernel,
    minsup_count: int,
    config: MinerConfig,
    executor: ThreadPoolExecutor | None,
    n_jobs: int,
) -> tuple[list[tuple[tuple[int, ...], int]], int]:
    """Level-wise Apriori search evaluated on the dense kernel.

    Finds the same bodies in the same order as the big-int
    :func:`_next_level` loop (see :func:`_next_level_dense`), with the
    same explosion cap and the same per-level counters.  Survivor masks
    are converted back to big ints so the body cache stays
    backend-agnostic: a big-int mine can replay a dense discovery and
    vice versa.
    """
    ordered_bodies: list[tuple[tuple[int, ...], int]] = []
    # Level 1: one vectorized popcount pass over every gsale row.
    # ``body_gids`` is ascending, matching the big-int path's
    # ``sorted(index.body_masks)`` enumeration.
    counts = kernel.single_counts()
    frequent_gids = [
        gid for gid in kernel.body_gids if counts[gid] >= minsup_count
    ]
    obs.count("mine.level1.candidates", len(kernel.body_gids))
    obs.count("mine.level1.frequent", len(frequent_gids))
    level_keys: list[tuple[int, ...]] = [(gid,) for gid in frequent_gids]
    level_rows = kernel.gather_rows(frequent_gids)
    frequent_body_count = len(level_keys)
    ordered_bodies.extend(
        ((gid,), index.body_masks[gid]) for gid in frequent_gids
    )

    size = 1
    while level_keys and size < config.max_body_size:
        level_keys, level_rows, candidates = _next_level_dense(
            kernel,
            level_keys,
            level_rows,
            minsup_count,
            config,
            size,
            index.ancestor_ids,
            executor,
            n_jobs,
        )
        obs.count(f"mine.level{size + 1}.candidates", candidates)
        obs.count(f"mine.level{size + 1}.frequent", len(level_keys))
        obs.count(f"mine.level{size + 1}.pruned", candidates - len(level_keys))
        frequent_body_count += len(level_keys)
        ordered_bodies.extend(
            (key, kernel.to_int(row))
            for key, row in zip(level_keys, level_rows)
        )
        size += 1
    return ordered_bodies, frequent_body_count


def _next_level_dense(
    kernel: DenseBitsetKernel,
    level_keys: list[tuple[int, ...]],
    level_rows: object,
    minsup_count: int,
    config: MinerConfig,
    size: int,
    ancestor_ids: list[frozenset[int]],
    executor: ThreadPoolExecutor | None = None,
    n_jobs: int = 1,
    where: str = "",
) -> tuple[list[tuple[int, ...]], object, int]:
    """Apriori join + prune of one level, evaluated in dense batches.

    The one level step of both dense searches: the in-RAM one above
    and SON pass 1 (:func:`repro.core.partition._local_frequent_bodies`,
    which names its partition in ``where``).  Returns the next level's
    keys (generation order, which for the prefix join of sorted keys is
    itself sorted), their row matrix and the number of candidates the
    big-int loop counts.  Level 2 takes its candidates from
    :func:`_frequent_pairs_dense`; higher levels enumerate the prefix
    join in Python.  Either way the candidates' parent rows are ANDed in
    chunks that bound peak memory and, with an executor, run
    concurrently; results are gathered in chunk order, so the output is
    independent of ``n_jobs``.
    """
    if size == 1:
        candidates, cand_keys, left_rows, right_rows = _frequent_pairs_dense(
            kernel,
            [key[0] for key in level_keys],
            level_rows,
            minsup_count,
            config,
            ancestor_ids,
            executor,
            n_jobs,
            where,
        )
    else:
        order = sorted(range(len(level_keys)), key=level_keys.__getitem__)
        keys = [level_keys[i] for i in order]
        key_set = frozenset(keys)
        candidates = 0
        cand_keys = []
        left_rows = []
        right_rows = []
        for i, left in enumerate(keys):
            for j in range(i + 1, len(keys)):
                right = keys[j]
                if left[:-1] != right[:-1]:
                    break  # sorted keys: the shared prefix can only shrink
                candidate = left + (right[-1],)
                candidates += 1
                if candidates > config.max_candidates_per_level:
                    raise _explosion(size, config, where)
                if not _all_subsets_frequent(candidate, key_set):
                    continue
                cand_keys.append(candidate)
                left_rows.append(order[i])
                right_rows.append(order[j])

    def join_chunk(start: int, stop: int) -> tuple[list[int], object]:
        return kernel.join_pairs(
            level_rows,
            left_rows[start:stop],
            right_rows[start:stop],
            minsup_count,
        )

    next_keys: list[tuple[int, ...]] = []
    kept_parts: list[object] = []
    chunks = map_chunks(
        join_chunk, len(cand_keys), _JOIN_CHUNK, executor, n_jobs
    )
    for chunk_index, (kept, rows) in enumerate(chunks):
        base = chunk_index * _JOIN_CHUNK
        next_keys.extend(cand_keys[base + local] for local in kept)
        if kept:
            kept_parts.append(rows)
    return next_keys, kernel.stack(kept_parts), candidates


def _frequent_pairs_dense(
    kernel: DenseBitsetKernel,
    gids: list[int],
    rows: object,
    minsup_count: int,
    config: MinerConfig,
    ancestor_ids: list[frozenset[int]],
    executor: ThreadPoolExecutor | None,
    n_jobs: int,
    where: str,
) -> tuple[int, list[tuple[int, ...]], list[int], list[int]]:
    """Level-2 candidates from one pair histogram instead of every AND.

    ``gids`` are the frequent level-1 gsales, ascending, and ``rows``
    their matrix rows.  The prefix join of level 1 pairs every gsale with
    every later one, so the big-int loop counts ``n1·(n1−1)/2``
    candidates and trips the cap exactly when that exceeds
    ``max_candidates_per_level`` — checked here before anything is
    allocated.  :meth:`DenseBitsetKernel.pair_counts` then gives every
    pair's exact support at once; the pairs meeting ``minsup_count`` come
    out of ``nonzero`` in row-major order, which is the loop's ``(i, j)``
    order, and the Definition 4 ancestor-free test runs on those few
    only.  Returns that candidate count and the surviving pairs' keys,
    left rows and right rows; the caller's join materializes their rows,
    its popcount re-checking each count.
    """
    n1 = len(gids)
    candidates = n1 * (n1 - 1) // 2
    if candidates > config.max_candidates_per_level:
        raise _explosion(1, config, where)
    counts = kernel.pair_counts(rows, executor, n_jobs)
    frequent_i, frequent_j = (counts >= minsup_count).nonzero()
    cand_keys: list[tuple[int, ...]] = []
    left_rows: list[int] = []
    right_rows: list[int] = []
    for i, j in zip(frequent_i.tolist(), frequent_j.tolist()):
        a, b = gids[i], gids[j]
        if a in ancestor_ids[b] or b in ancestor_ids[a]:
            continue
        cand_keys.append((a, b))
        left_rows.append(i)
        right_rows.append(j)
    return candidates, cand_keys, left_rows, right_rows


def _build_default_rule(
    index: TransactionIndex,
    order: int,
    head_totals: dict[int, tuple[int, float]] | None = None,
) -> ScoredRule:
    """The default rule ``∅ → g`` maximizing ``Prof_re`` (Section 3.1).

    Matched transactions are the whole database, so maximizing ``Prof_re``
    reduces to maximizing total credited profit.  Ties break toward the
    head generated first: candidate heads are enumerated
    most-specific-first (deepest in the per-item MOA(H) sub-hierarchy,
    i.e. least favorable price first), mirroring the "generated before"
    tie-breaker applied to mined rules — so a tie keeps the most
    *specific* head, not the lexicographically first one.

    ``head_totals`` is the miner's per-head ``(hit count, total credited
    profit)`` table for *frequent* heads; their totals were accumulated in
    the same ascending-position order this loop would use, so reusing
    them is bit-identical and skips re-summing ``hit_profit`` over every
    frequent head's hits on every mine.  Infrequent heads (few hits by
    definition) still sum directly.
    """
    best_hid: int | None = None
    best_profit = -math.inf
    for hid in index.candidate_head_ids:
        cached = head_totals.get(hid) if head_totals is not None else None
        if cached is not None:
            total = cached[1]
        else:
            total = sum(
                index.hit_profit(pos, hid)
                for pos in TransactionIndex.iter_bits(index.head_hits_mask(hid))
            )
        if total > best_profit:  # strict: a tie keeps the earlier, more
            best_profit = total  # specific head in generation order
            best_hid = hid
    if best_hid is None:  # pragma: no cover - catalog validation prevents this
        raise MiningError("no candidate heads available for the default rule")
    hits_mask = index.head_hits_mask(best_hid)
    rule = Rule(body=frozenset(), head=index.gsales[best_hid], order=order)
    stats = RuleStats(
        n_matched=index.n,
        n_hits=hits_mask.bit_count(),
        rule_profit=best_profit,
        n_total=index.n,
    )
    return ScoredRule(rule=rule, stats=stats)
