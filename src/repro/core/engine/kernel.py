"""Dense chunked-bitset kernel: vectorized support counting.

The big-int mining backend stores each tid-set as one arbitrary-precision
Python integer and evaluates candidates one at a time — an ``&`` plus a
``bit_count()`` per (body, head) or join pair, each paying interpreter
dispatch and a fresh heap allocation for the intermediate mask.  At
production scale (the ~100k-transaction workloads of the ROADMAP north
star) that per-candidate overhead dominates a single mine.

This module provides the dense alternative: every gsale's tid-mask
becomes a row of ``ceil(n / 64)`` little-endian ``uint64`` chunks in a
shared matrix, so a whole level of Apriori join candidates — or a body
against every frequent head — is evaluated as one batched ``AND`` +
popcount over contiguous rows.  Level 2 does not even AND its
candidate pairs: :meth:`DenseBitsetKernel.pair_counts` histograms the
member pairs of every transaction into one ``(r, r)`` co-occurrence
matrix, so its cost follows the pairs that co-occur rather than all
``r·(r−1)/2`` candidates, and only the frequent pairs' rows are ever
ANDed.  The batched primitives release the GIL inside NumPy's ufunc
loops, which is what makes the opt-in within-mine thread parallelism
(``MinerConfig.n_jobs`` / ``REPRO_JOBS``) effective.

Equivalence with the big-int backend is structural, not numerical: the
dense rows are bit-for-bit the same masks (``to_int``/``from_int`` are
exact inverses on ``n``-bit values, with the pad bits of the last chunk
always zero), counts are exact integers whether they come from popcount
or from the pair histogram, candidate generation order is shared with
the big-int path, and credited-profit sums are *not* vectorized —
survivors convert their hit rows back to Python ints and run the exact
sequential summation the big-int backend runs, so every float in a
:class:`~repro.core.mining.MiningResult` is identical, not just close.
See ``docs/ALGORITHMS.md`` §9 for the full argument.

NumPy is an optional extra (``pip install repro[dense]``): this module
imports without it, :data:`HAVE_NUMPY` reports availability, and every
caller falls back to the big-int backend when the kernel is unavailable.
"""

from __future__ import annotations

import os
import sys
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.errors import MiningError, ValidationError
from repro.obs import trace as obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy

try:  # NumPy is the optional "dense" extra; the big-int path needs nothing.
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the numpy-free CI leg
    np = None  # type: ignore[assignment]

__all__ = [
    "HAVE_NUMPY",
    "DENSE_MIN_TRANSACTIONS",
    "BACKENDS",
    "DenseBitsetKernel",
    "map_chunks",
    "resolve_backend",
    "resolve_jobs",
    "run_sliced",
]

#: Whether the dense kernel can run here.  Chunks are little-endian
#: ``uint64``, so ``row.tobytes()`` equals the mask's little-endian byte
#: string only on little-endian hosts; big-endian platforms (rare) use
#: the big-int backend.
HAVE_NUMPY = np is not None and sys.byteorder == "little"

#: ``backend="auto"`` switches to the dense kernel at this many
#: transactions.  Below it the big-int masks fit comfortably in cache and
#: the matrix build does not amortize; above it batched AND + popcount
#: wins decisively.  The crossover is flat over a wide range, so the
#: constant is deliberately coarse.
DENSE_MIN_TRANSACTIONS = 4096

BACKENDS = ("auto", "dense", "bigint", "ooc")

_CHUNK_BITS = 64

#: Transaction block of :meth:`DenseBitsetKernel.pair_counts`: 128 chunks
#: (8,192 transactions).  It bounds the transient per-block bit matrix
#: (``rows × 8,192`` bytes) and pair-code array; counts are identical at
#: any block size.
_PAIR_BLOCK_CHUNKS = 128


def resolve_backend(backend: str, n_transactions: int) -> str:
    """The concrete backend (``"dense"``, ``"bigint"`` or ``"ooc"``).

    ``"auto"`` picks the dense kernel when NumPy is importable and the
    database is large enough to amortize the matrix build; an explicit
    ``"dense"`` insists, raising :class:`~repro.errors.MiningError` when
    the kernel cannot run so a deployment that sized its hardware for the
    dense path fails loudly instead of silently mining 10× slower.  The
    out-of-core partitioned backend (``"ooc"``, :mod:`repro.core.partition`)
    is never auto-selected — spilling to disk is an explicit choice — and
    like ``"dense"`` it fails loudly without numpy: its memmapped chunk
    matrices are the dense kernel's representation.
    """
    if backend == "bigint":
        return "bigint"
    if backend == "dense":
        if not HAVE_NUMPY:
            raise MiningError(
                "backend='dense' requires numpy on a little-endian host; "
                "install the 'dense' extra (pip install repro[dense]) or "
                "use backend='auto'/'bigint'"
            )
        return "dense"
    if backend == "ooc":
        if not HAVE_NUMPY:
            raise MiningError(
                "backend='ooc' requires numpy on a little-endian host: the "
                "partitioned store memmaps uint64 chunk matrices; install "
                "the 'dense' extra (pip install repro[dense]) or use "
                "backend='auto'/'bigint'"
            )
        return "ooc"
    if backend == "auto":
        if HAVE_NUMPY and n_transactions >= DENSE_MIN_TRANSACTIONS:
            return "dense"
        return "bigint"
    raise MiningError(f"unknown mining backend {backend!r}; expected one of {BACKENDS}")


def resolve_jobs(n_jobs: int | None) -> int:
    """Worker-thread count for within-mine batch parallelism.

    ``None`` defers to ``REPRO_JOBS`` (the same knob that fans out sweep
    cells across processes, see ``repro.eval.experiments.jobs_from_env``),
    defaulting to sequential.  Results are identical at any setting:
    batches are partitioned deterministically and gathered in order.
    """
    if n_jobs is None:
        raw = os.environ.get("REPRO_JOBS", "").strip()
        if not raw:
            return 1
        try:
            n_jobs = int(raw)
        except ValueError:
            raise ValidationError(
                f"REPRO_JOBS must be a positive integer, got {raw!r}"
            ) from None
    if n_jobs < 1:
        raise ValidationError(f"n_jobs must be >= 1, got {n_jobs}")
    return n_jobs


def _require_numpy() -> None:
    if not HAVE_NUMPY:
        raise MiningError(
            "the dense bitset kernel requires numpy on a little-endian host"
        )


if np is not None and not hasattr(np, "bitwise_count"):
    # NumPy < 2.0 has no popcount ufunc; an 8-bit lookup table over the
    # uint8 view counts the same bits (each uint64 chunk is 8 table hits).
    _POPCOUNT8 = np.array(
        [bin(v).count("1") for v in range(256)], dtype=np.uint16
    )
else:
    _POPCOUNT8 = None


def _popcount_rows(matrix: "numpy.ndarray") -> "numpy.ndarray":
    """Per-row popcount of a ``(rows, chunks)`` uint64 matrix (int64)."""
    if _POPCOUNT8 is None:
        return np.bitwise_count(matrix).sum(axis=-1, dtype=np.int64)
    as_bytes = matrix.view(np.uint8)
    return _POPCOUNT8[as_bytes].sum(axis=-1, dtype=np.int64)


class DenseBitsetKernel:
    """Chunked-bitset mirror of one :class:`TransactionIndex`'s masks.

    Each gsale's transaction mask becomes a row of ``n_chunks``
    little-endian ``uint64`` words; bit ``i`` of the mask is bit
    ``i % 64`` of chunk ``i // 64``.  The matrices are built once from
    the index's big-int masks and shared — like every other structural
    table — between profit-model twins of the index.

    All primitives are exact: ``from_int``/``to_int`` round-trip any
    ``n``-bit mask, and counting is integer popcount, so a dense count
    can never disagree with ``int.bit_count()`` on the same mask.
    """

    __slots__ = (
        "n",
        "n_chunks",
        "body_gids",
        "body_rows",
        "_body_matrix",
    )

    def __init__(self, n: int, body_masks: dict[int, int]) -> None:
        _require_numpy()
        if n <= 0:
            raise MiningError("dense kernel needs a non-empty database")
        self.n = n
        self.n_chunks = (n + _CHUNK_BITS - 1) // _CHUNK_BITS
        #: gsale ids with a row in the matrix, ascending (deterministic).
        self.body_gids: list[int] = sorted(body_masks)
        self.body_rows: dict[int, int] = {
            gid: row for row, gid in enumerate(self.body_gids)
        }
        self._body_matrix = self.pack_masks(
            body_masks[gid] for gid in self.body_gids
        )
        obs.cache_event(
            "kernel.mask_matrix",
            builds=1,
            resident_bytes=int(self._body_matrix.nbytes),
        )

    @classmethod
    def from_matrix(
        cls, n: int, gids: Sequence[int], matrix: "numpy.ndarray"
    ) -> "DenseBitsetKernel":
        """Wrap an existing ``(len(gids), ceil(n/64))`` chunk matrix.

        The out-of-core store persists each partition's tid-mask rows as
        exactly this little-endian ``uint64`` layout, so a partition's
        kernel is a zero-copy view over the memmapped file — no big-int
        round trip, no matrix rebuild.  ``gids`` must be ascending (the
        store writes rows in ascending gsale id, matching the dict-built
        constructor's ``sorted(body_masks)`` order) and pad bits of the
        last chunk must be zero, which the store's builder guarantees.
        """
        _require_numpy()
        if n <= 0:
            raise MiningError("dense kernel needs a non-empty database")
        kernel = cls.__new__(cls)
        kernel.n = n
        kernel.n_chunks = (n + _CHUNK_BITS - 1) // _CHUNK_BITS
        if matrix.shape != (len(gids), kernel.n_chunks):
            raise MiningError(
                f"chunk matrix shape {matrix.shape} does not match "
                f"{len(gids)} rows x {kernel.n_chunks} chunks"
            )
        kernel.body_gids = list(gids)
        kernel.body_rows = {gid: row for row, gid in enumerate(kernel.body_gids)}
        kernel._body_matrix = matrix
        return kernel

    # ------------------------------------------------------------------
    # Mask <-> row conversions (exact inverses on n-bit values)
    # ------------------------------------------------------------------
    def from_int(self, mask: int) -> "numpy.ndarray":
        """One big-int mask as a ``(n_chunks,)`` uint64 row."""
        return np.frombuffer(
            mask.to_bytes(self.n_chunks * 8, "little"), dtype="<u8"
        )

    @staticmethod
    def to_int(row: "numpy.ndarray") -> int:
        """A chunk row back to the big-int mask (the exact inverse)."""
        return int.from_bytes(row.tobytes(), "little")

    def pack_masks(self, masks: Iterable[int]) -> "numpy.ndarray":
        """Stack big-int masks into a ``(len(masks), n_chunks)`` matrix."""
        n_bytes = self.n_chunks * 8
        buffer = b"".join(mask.to_bytes(n_bytes, "little") for mask in masks)
        matrix = np.frombuffer(buffer, dtype="<u8")
        return matrix.reshape(-1, self.n_chunks)

    def positions(self, mask: int) -> "numpy.ndarray":
        """Set-bit positions of a big-int mask, ascending.

        The vectorized twin of
        :meth:`~repro.core.mining.TransactionIndex.iter_bits`:
        ``unpackbits`` over the little-endian byte string yields bits in
        ascending significance, so the order matches ``iter_bits``
        exactly — consumers summing credited profit over the positions
        accumulate in the same order and get the same float.
        """
        as_bytes = np.frombuffer(
            mask.to_bytes((self.n + 7) // 8, "little"), dtype=np.uint8
        )
        bits = np.unpackbits(as_bytes, bitorder="little", count=self.n)
        return np.flatnonzero(bits)

    # ------------------------------------------------------------------
    # Batched primitives
    # ------------------------------------------------------------------
    def row_of(self, gid: int) -> "numpy.ndarray":
        """The (read-only view of the) matrix row of one gsale id."""
        return self._body_matrix[self.body_rows[gid]]

    def popcounts(self, matrix: "numpy.ndarray") -> "numpy.ndarray":
        """Per-row popcount (int64) of a ``(rows, chunks)`` matrix."""
        return _popcount_rows(matrix)

    def single_counts(self) -> dict[int, int]:
        """Support count of every gsale row, one vectorized pass."""
        counts = _popcount_rows(self._body_matrix)
        return {
            gid: int(counts[row]) for gid, row in self.body_rows.items()
        }

    def and_counts(
        self,
        rows: "numpy.ndarray",
        left: Sequence[int],
        right: Sequence[int],
    ) -> tuple["numpy.ndarray", "numpy.ndarray"]:
        """Batched ``rows[left] & rows[right]`` with per-pair popcounts.

        Returns ``(anded, counts)``.  The AND happens in the gathered
        left copy, so ``rows`` itself is never mutated.
        """
        gathered = rows[np.asarray(left, dtype=np.intp)]
        np.bitwise_and(
            gathered, rows[np.asarray(right, dtype=np.intp)], out=gathered
        )
        counts = _popcount_rows(gathered)
        return gathered, counts

    def join_pairs(
        self,
        rows: "numpy.ndarray",
        left: Sequence[int],
        right: Sequence[int],
        min_count: int,
    ) -> tuple[list[int], "numpy.ndarray"]:
        """One Apriori join batch: AND the row pairs, keep frequent results.

        Returns ``(kept, anded_rows)`` where ``kept`` lists the positions
        (within this batch, ascending) whose intersection meets
        ``min_count`` and ``anded_rows`` holds exactly those intersection
        rows.  Popcount is exact integer counting, so the survivors are
        precisely the candidates the big-int backend would keep.
        """
        anded, counts = self.and_counts(rows, left, right)
        keep = np.flatnonzero(counts >= min_count)
        return keep.tolist(), anded[keep]

    def pair_counts(
        self, rows: "numpy.ndarray", executor=None, n_jobs: int = 1
    ) -> "numpy.ndarray":
        """Co-occurrence counts of every row pair, as one histogram.

        Returns an ``(r, r)`` int64 matrix whose entry ``[i, j]`` for
        ``i < j`` equals ``popcount(rows[i] & rows[j])``; entries with
        ``i >= j`` are zero.  Instead of ANDing all ``r·(r−1)/2`` row
        pairs, each block of transactions is unpacked into per-transaction
        member lists, every member pair of every transaction becomes the
        code ``i·r + j``, and ``bincount`` tallies the codes.  The work is
        proportional to the pairs that actually co-occur, and the counts
        are exact integers, so the matrix equals the brute-force AND +
        popcount entry for entry.  Blocks run through :func:`map_chunks`
        and are summed in block order.
        """
        r = rows.shape[0]
        if r < 2:
            return np.zeros((r, r), dtype=np.int64)

        def block_counts(start: int, stop: int) -> "numpy.ndarray":
            # Byte b of row i holds transactions 8b..8b+7 (bit k = 8b+k),
            # so unpacking the (bytes, rows) transpose along axis 0 gives a
            # transaction-major (transactions, rows) bit matrix directly.
            block = np.ascontiguousarray(rows[:, start:stop]).view(np.uint8)
            bits = np.unpackbits(
                np.ascontiguousarray(block.T), axis=0, bitorder="little"
            )
            txn, member = np.divmod(np.flatnonzero(bits), r)
            # Members come out ascending within each transaction; element p
            # pairs with the ``later[p]`` members after it in its own one.
            ends = np.cumsum(np.bincount(txn))[txn]
            later = ends - np.arange(txn.size) - 1
            # Elements by descending ``later``: the elements with a partner
            # at offset d are a prefix of ``by_later``, ``n_with[d]`` long.
            by_later = np.argsort(-later, kind="stable")
            n_with = np.bincount(later)[::-1].cumsum()[::-1]
            base = member * r
            codes = np.empty(int(later.sum()), dtype=np.int64)
            pos = 0
            for offset in range(1, n_with.size):
                left = by_later[: n_with[offset]]
                np.add(
                    base[left],
                    member[left + offset],
                    out=codes[pos : pos + left.size],
                )
                pos += left.size
            return np.bincount(codes, minlength=r * r)

        counts = np.zeros(r * r, dtype=np.int64)
        for part in map_chunks(
            block_counts, rows.shape[1], _PAIR_BLOCK_CHUNKS, executor, n_jobs
        ):
            counts += part
        return counts.reshape(r, r)

    def gather_rows(self, gids: Sequence[int]) -> "numpy.ndarray":
        """A fresh ``(len(gids), n_chunks)`` matrix of the given gsale rows."""
        rows = np.fromiter(
            (self.body_rows[gid] for gid in gids), dtype=np.intp, count=len(gids)
        )
        return self._body_matrix[rows]

    @staticmethod
    def take(matrix: "numpy.ndarray", indices: Sequence[int]) -> "numpy.ndarray":
        """``matrix[indices]`` without the caller importing numpy."""
        return matrix[np.asarray(indices, dtype=np.intp)]

    def stack(self, parts: Sequence["numpy.ndarray"]) -> "numpy.ndarray":
        """Vertically stack row matrices (an empty list stacks to 0 rows)."""
        if not parts:
            return np.empty((0, self.n_chunks), dtype="<u8")
        return np.vstack(parts)

    @staticmethod
    def and_to_int(a: "numpy.ndarray", b: "numpy.ndarray") -> int:
        """``to_int(a & b)`` — one candidate's hit mask, back as a big int."""
        return int.from_bytes(np.bitwise_and(a, b).tobytes(), "little")

    def intersect_to_int(self, gids: Sequence[int]) -> int:
        """Big-int mask of the transactions containing every gsale in ``gids``.

        Mirrors :meth:`TransactionIndex.body_mask` exactly, including the
        unknown-gsale convention (a gsale with no mask matches nothing).
        """
        rows = self.body_rows
        first = rows.get(gids[0])
        if first is None:
            return 0
        acc = self._body_matrix[first].copy()
        for gid in gids[1:]:
            row = rows.get(gid)
            if row is None:
                return 0
            np.bitwise_and(acc, self._body_matrix[row], out=acc)
        return self.to_int(acc)

    def head_hit_counts(
        self,
        body_rows: "numpy.ndarray",
        head_matrix: "numpy.ndarray",
        executor=None,
        n_jobs: int = 1,
    ) -> "numpy.ndarray":
        """Hit counts of every (body, head) pair: ``popcount(body & head)``.

        Returns a ``(n_bodies, n_heads)`` int64 matrix.  This is the
        rule-emission inner product: one vectorized AND + popcount per
        head over the whole body batch replaces a big-int ``&`` +
        ``bit_count()`` per (body, head) candidate.
        """
        n_heads = head_matrix.shape[0]

        def work(start: int, stop: int) -> "numpy.ndarray":
            batch = body_rows[start:stop]
            scratch = np.empty_like(batch)
            out = np.empty((stop - start, n_heads), dtype=np.int64)
            for j in range(n_heads):
                np.bitwise_and(batch, head_matrix[j], out=scratch)
                out[:, j] = _popcount_rows(scratch)
            return out

        parts = run_sliced(
            work, body_rows.shape[0], executor, n_jobs, min_batch=32
        )
        if not parts:
            return np.empty((0, n_heads), dtype=np.int64)
        return np.concatenate(parts, axis=0)

    def masks_for_bodies(
        self, bodies: Sequence[tuple[int, ...]]
    ) -> list[int]:
        """Big-int transaction masks of many bodies, batched by member.

        The accumulator starts from every body's first member row and
        ANDs in the k-th members of all bodies long enough to have one —
        ``max_body_size`` vectorized passes instead of one big-int ``&``
        chain per body.  Used by the FP-growth backend's mask-attachment
        step.
        """
        if not bodies:
            return []
        body_rows = self.body_rows
        order = sorted(range(len(bodies)), key=lambda i: len(bodies[i]))
        first = np.fromiter(
            (body_rows[bodies[i][0]] for i in order),
            dtype=np.intp,
            count=len(bodies),
        )
        acc = self._body_matrix[first]
        max_len = len(bodies[order[-1]])
        for member in range(1, max_len):
            start = next(
                pos
                for pos, i in enumerate(order)
                if len(bodies[i]) > member
            )
            gather = np.fromiter(
                (body_rows[bodies[i][member]] for i in order[start:]),
                dtype=np.intp,
                count=len(order) - start,
            )
            np.bitwise_and(
                acc[start:], self._body_matrix[gather], out=acc[start:]
            )
        masks = [0] * len(bodies)
        for pos, i in enumerate(order):
            masks[i] = self.to_int(acc[pos])
        return masks


def parallel_ranges(
    n_items: int, n_jobs: int, min_batch: int = 32
) -> list[tuple[int, int]]:
    """Deterministic near-even partition of ``range(n_items)``.

    Workers each take one contiguous slice; gathering slice results in
    index order makes the parallel evaluation order-identical to the
    sequential one, which is what lets ``n_jobs`` stay a pure
    performance knob.
    """
    if n_items <= 0:
        return []
    n_slices = max(1, min(n_jobs, (n_items + min_batch - 1) // min_batch))
    base, extra = divmod(n_items, n_slices)
    ranges: list[tuple[int, int]] = []
    start = 0
    for slice_index in range(n_slices):
        stop = start + base + (1 if slice_index < extra else 0)
        if stop > start:
            ranges.append((start, stop))
        start = stop
    return ranges


def run_sliced(
    work: Callable[[int, int], object],
    n_items: int,
    executor,
    n_jobs: int,
    min_batch: int = 32,
) -> list:
    """Run ``work(start, stop)`` over a partition, results in slice order.

    With one job (or no executor) this is a plain loop; otherwise slices
    are submitted to the shared thread pool.  NumPy's AND/popcount loops
    release the GIL, so threads — which share the matrices for free —
    give real parallelism without pickling 100k-bit masks across
    processes.
    """
    ranges = parallel_ranges(n_items, n_jobs, min_batch)
    if executor is None or n_jobs <= 1 or len(ranges) <= 1:
        return [work(start, stop) for start, stop in ranges]
    futures = [executor.submit(work, start, stop) for start, stop in ranges]
    return [future.result() for future in futures]


def map_chunks(
    work: Callable[[int, int], object],
    n_items: int,
    chunk_size: int,
    executor,
    n_jobs: int,
) -> Iterable:
    """Yield ``work(start, stop)`` over fixed-size chunks, in chunk order.

    Unlike :func:`run_sliced` — which partitions by worker count — the
    chunk size here bounds *memory*: a candidate join over millions of
    pairs is evaluated a few thousand rows at a time regardless of
    ``n_jobs``.  With an executor, up to ``n_jobs`` chunks are kept in
    flight; results are still yielded strictly in order, so consumers
    are deterministic at any parallelism.
    """
    bounds = [
        (start, min(start + chunk_size, n_items))
        for start in range(0, n_items, chunk_size)
    ]
    if executor is None or n_jobs <= 1 or len(bounds) <= 1:
        for start, stop in bounds:
            yield work(start, stop)
        return
    from collections import deque
    from itertools import islice

    bounds_iter = iter(bounds)
    pending: deque = deque(
        executor.submit(work, start, stop)
        for start, stop in islice(bounds_iter, n_jobs)
    )
    while pending:
        future = pending.popleft()
        nxt = next(bounds_iter, None)
        if nxt is not None:
            pending.append(executor.submit(work, *nxt))
        yield future.result()
