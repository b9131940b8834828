"""Unit tests for the dense chunked-bitset kernel (engine layer)."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import kernel as kernel_mod
from repro.core.engine.kernel import (
    BACKENDS,
    DENSE_MIN_TRANSACTIONS,
    HAVE_NUMPY,
    DenseBitsetKernel,
    map_chunks,
    parallel_ranges,
    resolve_backend,
    resolve_jobs,
)
from repro.core.mining import TransactionIndex
from repro.errors import MiningError, ValidationError

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="dense kernel needs numpy"
)

# Masks straddling the uint64 chunk seams: empty, single low bit, the
# 63/64/65 boundary bits, a full first chunk, and a sparse wide mask.
BOUNDARY_MASKS = [
    0,
    1,
    1 << 63,
    1 << 64,
    1 << 65,
    (1 << 64) - 1,
    (1 << 129) | (1 << 64) | 1,
]


@needs_numpy
class TestMaskRoundTrip:
    @pytest.mark.parametrize("mask", BOUNDARY_MASKS)
    def test_from_int_to_int_exact(self, mask):
        kernel = DenseBitsetKernel(130, {})
        assert DenseBitsetKernel.to_int(kernel.from_int(mask)) == mask

    @pytest.mark.parametrize("mask", BOUNDARY_MASKS)
    def test_positions_match_iter_bits(self, mask):
        kernel = DenseBitsetKernel(130, {})
        assert kernel.positions(mask).tolist() == list(
            TransactionIndex.iter_bits(mask)
        )

    def test_pack_masks_popcounts(self):
        kernel = DenseBitsetKernel(130, {})
        matrix = kernel.pack_masks(BOUNDARY_MASKS)
        assert kernel.popcounts(matrix).tolist() == [
            mask.bit_count() for mask in BOUNDARY_MASKS
        ]


@needs_numpy
class TestJoinPairs:
    def test_join_keeps_exactly_frequent_intersections(self):
        masks = {0: 0b1111, 1: 0b0110, 2: 0b1010, 3: 0b0001}
        kernel = DenseBitsetKernel(4, masks)
        rows = kernel.gather_rows([0, 1, 2, 3])
        left, right = [0, 0, 1], [1, 2, 3]
        kept, anded = kernel.join_pairs(rows, left, right, min_count=2)
        expected = [
            (pos, masks[l] & masks[r])
            for pos, (l, r) in enumerate(zip(left, right))
            if (masks[l] & masks[r]).bit_count() >= 2
        ]
        assert kept == [pos for pos, _ in expected]
        assert [DenseBitsetKernel.to_int(row) for row in anded] == [
            mask for _, mask in expected
        ]

    def test_intersect_unknown_gid_is_empty(self):
        kernel = DenseBitsetKernel(4, {0: 0b1111})
        assert kernel.intersect_to_int([0, 99]) == 0
        assert kernel.intersect_to_int([0]) == 0b1111


#: Transactions per ``pair_counts`` block, and sizes around its seams:
#: the uint64 chunk seams (n ≡ 0/1 mod 64) and several whole blocks.
PAIR_BLOCK = kernel_mod._PAIR_BLOCK_CHUNKS * 64
PAIR_SIZES = [1, 2, 63, 64, 65, 127, 128, 129, PAIR_BLOCK, 2 * PAIR_BLOCK + 1]


@st.composite
def pair_problems(draw):
    """``n`` and up to 6 masks: all-zero, all-one or sparse random rows."""
    n = draw(st.sampled_from(PAIR_SIZES))
    full = (1 << n) - 1
    sparse = st.lists(st.integers(0, n - 1), max_size=min(n, 40)).map(
        lambda positions: sum(1 << p for p in set(positions))
    )
    masks = draw(
        st.lists(st.one_of(st.just(0), st.just(full), sparse), max_size=6)
    )
    return n, masks


def _brute_pair_counts(masks):
    return [
        [
            (masks[i] & masks[j]).bit_count() if i < j else 0
            for j in range(len(masks))
        ]
        for i in range(len(masks))
    ]


@needs_numpy
class TestPairCounts:
    @given(pair_problems())
    @settings(max_examples=60, deadline=None)
    def test_equals_brute_force_and_popcount(self, problem):
        n, masks = problem
        kernel = DenseBitsetKernel(n, {})
        counts = kernel.pair_counts(kernel.pack_masks(masks))
        assert counts.shape == (len(masks), len(masks))
        assert counts.tolist() == _brute_pair_counts(masks)

    @pytest.mark.parametrize("n_rows", [0, 1, 2])
    def test_tiny_row_counts(self, n_rows):
        masks = [0b1011, 0b0110][:n_rows]
        kernel = DenseBitsetKernel(4, {})
        counts = kernel.pair_counts(kernel.pack_masks(masks))
        assert counts.tolist() == _brute_pair_counts(masks)

    def test_threaded_blocks_match_sequential(self):
        n = 3 * PAIR_BLOCK + 5
        masks = [
            sum(1 << p for p in range(start, n, step))
            for start, step in [(0, 3), (1, 5), (2, 7), (n - 1, 1), (0, 64)]
        ]
        kernel = DenseBitsetKernel(n, {})
        rows = kernel.pack_masks(masks)
        with ThreadPoolExecutor(max_workers=2) as executor:
            threaded = kernel.pair_counts(rows, executor, 2)
        assert threaded.tolist() == kernel.pair_counts(rows).tolist()
        assert threaded.tolist() == _brute_pair_counts(masks)


class TestResolveBackend:
    def test_explicit_bigint_always_wins(self):
        assert resolve_backend("bigint", 10**9) == "bigint"

    @needs_numpy
    def test_auto_thresholds_on_size(self):
        assert resolve_backend("auto", DENSE_MIN_TRANSACTIONS - 1) == "bigint"
        assert resolve_backend("auto", DENSE_MIN_TRANSACTIONS) == "dense"

    def test_unknown_backend_rejected(self):
        with pytest.raises(MiningError, match="unknown mining backend"):
            resolve_backend("sparse", 100)

    def test_without_numpy_auto_falls_back_dense_raises(self, monkeypatch):
        monkeypatch.setattr(kernel_mod, "HAVE_NUMPY", False)
        assert kernel_mod.resolve_backend("auto", 10**9) == "bigint"
        with pytest.raises(MiningError, match="requires numpy"):
            kernel_mod.resolve_backend("dense", 10**9)

    def test_backends_tuple_matches_cli_choices(self):
        assert set(BACKENDS) == {"auto", "dense", "bigint", "ooc"}


class TestResolveJobs:
    def test_defaults_sequential(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3
        assert resolve_jobs(2) == 2  # explicit wins over the env

    def test_invalid_values_rejected(self, monkeypatch):
        with pytest.raises(ValidationError, match="n_jobs"):
            resolve_jobs(0)
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValidationError, match="REPRO_JOBS"):
            resolve_jobs(None)


class TestChunkedDispatch:
    def test_parallel_ranges_cover_without_overlap(self):
        for total, size in [(0, 4), (3, 4), (8, 4), (9, 4), (1, 1)]:
            ranges = parallel_ranges(total, size)
            flat = [i for start, stop in ranges for i in range(start, stop)]
            assert flat == list(range(total))

    def test_map_chunks_sequential_order(self):
        seen = []

        def work(start, stop):
            seen.append((start, stop))
            return list(range(start, stop))

        chunks = list(map_chunks(work, 10, 3, None, 1))
        assert chunks == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]
        assert seen == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_map_chunks_threaded_preserves_order(self):
        from concurrent.futures import ThreadPoolExecutor

        def work(start, stop):
            return list(range(start, stop))

        with ThreadPoolExecutor(max_workers=3) as executor:
            chunks = list(map_chunks(work, 100, 7, executor, 3))
        assert [i for chunk in chunks for i in chunk] == list(range(100))
