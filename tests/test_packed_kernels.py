"""Property tests: packed-word kernels agree bit-for-bit with the per-base reference.

The per-base mask helpers of ``repro.filters.bitvector`` / ``repro.filters.masks``
are the reference implementation; every bit-sliced kernel in
``repro.filters.packed`` (one bit per pair, 64 pairs per ``uint64`` word,
``(length, n_blocks)`` planes) and every filter path built on it must
reproduce them exactly across read lengths {1, 8, 64, 100, 251} and
thresholds {0, 2, 5}, plus 10 and 33 for the every-filter test (a 33-base
shift crosses more than one code word and is wider than the 8 bp read),
including ``N``-containing pairs, length-1 edge cases, empty batches, and
one base either side of each 32-base code word and 64-bit word boundary.
"""

import numpy as np
import pytest

from repro.engine import FilterEngine, available_filters, get_filter
from repro.filters import GateKeeperFilter, GateKeeperGPUFilter, native, packed
from repro.filters.native import _kernels as native_kernels
from repro.filters.bitvector import amend_mask, count_set_windows, shifted_mask
from repro.filters.masks import EdgePolicy, build_mask_set
from repro.filters.shouji import neighborhood_map_batch
from repro.genomics.encoding import EncodedPairBatch, pack_codes_to_words
from helpers import from_planes, plane_bits, to_planes

#: The GateKeeper-family filter running each edge policy.
GATEKEEPER_BY_POLICY = {EdgePolicy.ZERO: GateKeeperFilter, EdgePolicy.ONE: GateKeeperGPUFilter}

READ_LENGTHS = [8, 64, 100, 251]
THRESHOLDS = [0, 2, 5]
#: The every-filter test also runs above any realistic threshold.
LARGE_THRESHOLDS = [10, 33]
#: One base either side of the 32-base code word and of 64 bases.
WORD_BOUNDARY_LENGTHS = [31, 33, 63, 65, 128, 129]


def _random_pairs(rng, n_pairs, length, mutate=0.15):
    """Correlated code batches (reads are mostly equal to their segments)."""
    ref = rng.integers(0, 4, size=(n_pairs, length)).astype(np.uint8)
    noise = rng.integers(0, 4, size=(n_pairs, length)).astype(np.uint8)
    read = np.where(rng.random((n_pairs, length)) < mutate, noise, ref).astype(np.uint8)
    return read, ref


def _codes_to_strings(codes):
    return ["".join("ACGT"[c] for c in row) for row in codes]


@pytest.fixture(params=["numpy", "twins"])
def kernel_tier(request, monkeypatch):
    """A tier whose registered kernels are the NumPy ones or the uncompiled twins.

    ``"twins"`` registers the plain-Python ``_kernels`` sources as the native
    tier, so ``filter_batch`` runs them even where Numba is not installed.
    """
    if request.param == "numpy":
        monkeypatch.setattr(native, "_AVAILABLE", False)
        return "numpy"
    monkeypatch.setattr(native, "_AVAILABLE", True)
    for name in native.registered_kernels():
        monkeypatch.setitem(native._REGISTRY[name], "native", getattr(native_kernels, name))
    return "native"


class TestPackedPrimitives:
    @pytest.mark.parametrize("length", [1, 8, 50, 100])
    @pytest.mark.parametrize("vacant_value", [0, 1])
    def test_shifted_mismatch_planes_match_reference(self, length, vacant_value):
        rng = np.random.default_rng(length * 10 + vacant_value)
        read, ref = _random_pairs(rng, 70, length)
        read_planes, ref_planes = packed.bit_planes(
            pack_codes_to_words(read, 64), pack_codes_to_words(ref, 64), length
        )
        diff = np.empty_like(read_planes)
        for shift in (-length - 2, -length, -3, -1, 0, 1, 4, length, length + 2):
            # The rows with no read base keep what the buffer held.
            out = np.full((length, 2), ~np.uint64(0) if vacant_value else np.uint64(0))
            vacated = packed.shifted_mismatch_planes(read_planes, ref_planes, shift, out, diff)
            assert vacated.stop - vacated.start == min(abs(shift), length)
            got = from_planes(out, 70)
            for i in range(70):
                expect = shifted_mask(read[i], ref[i], shift, vacant_value=vacant_value)
                assert np.array_equal(got[i], expect), (shift, i)

    @pytest.mark.parametrize("length", [1, 2, 3, 8, 64, 100, 251])
    @pytest.mark.parametrize("max_zero_run", [1, 2])
    def test_amend_planes_matches_reference(self, length, max_zero_run):
        rng = np.random.default_rng(length * 10 + max_zero_run)
        mask = (rng.random((70, length)) < 0.5).astype(np.uint8)
        padded = np.zeros((length + 4, 2), dtype=np.uint64)
        padded[2:-2] = to_planes(mask)
        got = from_planes(packed.amend_planes(padded, max_zero_run=max_zero_run), 70)
        expect = np.stack([amend_mask(m, max_zero_run=max_zero_run) for m in mask])
        assert np.array_equal(got, expect)

    def test_amend_planes_rejects_unsupported_run_length(self):
        padded = np.zeros((8 + 4, 1), dtype=np.uint64)
        with pytest.raises(ValueError):
            packed.amend_planes(padded, max_zero_run=3)

    @pytest.mark.parametrize("length", [1, 7, 8, 64, 100, 251])
    @pytest.mark.parametrize("window", [1, 2, 3, 4, 5, 8, 16, 32])
    def test_plane_window_count_matches_reference(self, length, window):
        rng = np.random.default_rng(length * 100 + window)
        mask = (rng.random((70, length)) < 0.3).astype(np.uint8)
        got = packed.count_plane_windows(to_planes(mask), window=window)
        assert got.dtype == np.int32 and got.shape == (128,)
        expect = np.array([count_set_windows(m, window=window) for m in mask])
        assert np.array_equal(got[:70], expect)
        assert not got[70:].any()

    @pytest.mark.parametrize("length", [1, 8, 100])
    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_chip_maze_matches_per_base_map(self, length, threshold):
        rng = np.random.default_rng(length + threshold)
        read, ref = _random_pairs(rng, 70, length)
        maze = packed.chip_maze(
            *packed.bit_planes(
                pack_codes_to_words(read, 64), pack_codes_to_words(ref, 64), length
            ),
            threshold,
        )
        assert maze.shape == (length, 2 * threshold + 1, 2)
        got = np.stack([from_planes(maze[:, i], 70) for i in range(2 * threshold + 1)], axis=1)
        assert np.array_equal(got, neighborhood_map_batch(read, ref, threshold))

    @pytest.mark.parametrize("n_rows", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("n_pairs", [0, 1, 63, 64, 65, 150])
    def test_unpack_planes_inverts_bit_slicing(self, n_rows, n_pairs):
        rng = np.random.default_rng((n_rows, n_pairs))
        mask = (rng.random((n_pairs, n_rows)) < 0.5).astype(np.uint8)
        got = packed.unpack_planes(to_planes(mask), n_pairs)
        assert got.dtype == bool and got.shape == (n_pairs, n_rows)
        assert np.array_equal(got, mask)

    def test_crossing_planes_cross_at_the_farthest_next_obstacle(self):
        # A hand-built maze of three diagonals over 12 columns, pairs spread
        # over three 64-pair blocks.  In the staircase, from column 0 the
        # diagonals' next obstacles are 2, 4 and 3, so the signal crosses at
        # 4; from 5 they are 7, 9 and 10, so it crosses at 10; from 11 none
        # is left.  A wall (every diagonal blocked) is crossed where it
        # stands, and a free diagonal is never crossed.
        maze = np.zeros((150, 3, 12), dtype=np.uint8)
        expect = {}
        for pair in (0, 130):
            for diagonal, columns in enumerate(([2, 7], [4, 9], [3, 10])):
                maze[pair, diagonal, columns] = 1
            expect[pair] = [4, 10]
        maze[70] = 1
        expect[70] = list(range(12))
        maze[64, [0, 2]] = 1
        expect[64] = []
        maze[63, :, 11] = 1
        maze[63, 0, [1, 3]] = 1
        expect[63] = [11]
        maze[149, 0, [0, 5]] = 1
        maze[149, 1, [1, 5, 6]] = 1
        maze[149, 2, [0, 1, 5]] = 1
        expect[149] = [1, 5]
        obstacles = np.stack([to_planes(maze[:, i]) for i in range(3)], axis=1)
        crossed = packed.crossing_planes(obstacles)
        assert crossed.shape == (12, 3)
        got = from_planes(crossed, 150)
        for pair in range(150):
            assert list(np.flatnonzero(got[pair])) == expect.get(pair, []), pair
        assert not plane_bits(crossed)[:, 2, 150 - 128 :].any()


class TestPackedGateKeeperKernel:
    @pytest.mark.parametrize("length", READ_LENGTHS)
    @pytest.mark.parametrize("threshold", THRESHOLDS)
    @pytest.mark.parametrize("edge_policy", [EdgePolicy.ZERO, EdgePolicy.ONE])
    def test_kernel_matches_scalar_mask_pipeline(self, length, threshold, edge_policy):
        rng = np.random.default_rng(hash((length, threshold, edge_policy)) % 2**32)
        read, ref = _random_pairs(rng, 60, length)
        estimates = GATEKEEPER_BY_POLICY[edge_policy](threshold).estimate_edits_words(
            pack_codes_to_words(read, 64), pack_codes_to_words(ref, 64), length
        )
        expect = np.array(
            [
                count_set_windows(
                    build_mask_set(
                        read[i], ref[i], threshold, edge_policy=edge_policy
                    ).final(),
                    window=4,
                )
                for i in range(read.shape[0])
            ],
            dtype=np.int32,
        )
        assert np.array_equal(estimates, expect)

    def test_kernel_length_one(self):
        read = np.array([[0], [3]], dtype=np.uint8)
        ref = np.array([[0], [1]], dtype=np.uint8)
        for threshold in (0, 1):
            estimates = GateKeeperGPUFilter(threshold).estimate_edits_words(
                pack_codes_to_words(read, 64), pack_codes_to_words(ref, 64), 1
            )
            expect = np.array(
                [
                    count_set_windows(
                        build_mask_set(
                            read[i], ref[i], threshold, edge_policy=EdgePolicy.ONE
                        ).final(),
                        window=4,
                    )
                    for i in range(2)
                ],
                dtype=np.int32,
            )
            assert np.array_equal(estimates, expect)


class TestAllFiltersAgainstReference:
    """Every registered filter: batch/engine paths vs the scalar filter."""

    @pytest.mark.parametrize("key", available_filters())
    @pytest.mark.parametrize("length", READ_LENGTHS)
    @pytest.mark.parametrize("threshold", THRESHOLDS + LARGE_THRESHOLDS)
    def test_batch_estimates_match_scalar(self, key, length, threshold):
        rng = np.random.default_rng(hash((key, length, threshold)) % 2**32)
        read, ref = _random_pairs(rng, 30, length)
        instance = get_filter(key, threshold)
        batch = instance.estimate_edits_batch(read, ref)
        scalar = np.array(
            [instance.estimate_edits_codes(read[i], ref[i]) for i in range(30)],
            dtype=np.int32,
        )
        assert np.array_equal(batch, scalar)

    @pytest.mark.parametrize("key", available_filters())
    @pytest.mark.parametrize("length", WORD_BOUNDARY_LENGTHS)
    @pytest.mark.parametrize("threshold", [0, 3, 10])
    def test_word_kernel_at_word_boundaries(self, key, length, threshold):
        rng = np.random.default_rng((length, available_filters().index(key), threshold))
        read, ref = _random_pairs(rng, 20, length, mutate=0.05)
        instance = get_filter(key, threshold)
        got = instance.estimate_edits_words(
            pack_codes_to_words(read, 64), pack_codes_to_words(ref, 64), length
        )
        expect = np.array(
            [instance.estimate_edits_codes(read[i], ref[i]) for i in range(20)],
            dtype=np.int32,
        )
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize("key", available_filters())
    def test_filter_batch_row_views_match_whole_batch(self, key):
        rng = np.random.default_rng((7, available_filters().index(key)))
        read, ref = _random_pairs(rng, 40, 100, mutate=0.05)
        reads, segments = _codes_to_strings(read), _codes_to_strings(ref)
        for i in range(0, 40, 9):
            reads[i] = reads[i][:50] + "N" + reads[i][51:]
        instance = get_filter(key, 3)
        pairs = EncodedPairBatch.from_lists(reads, segments)
        whole_estimates, whole_accepted = instance.filter_batch(pairs)
        for rows in (slice(0, 13), slice(13, 40), np.array([39, 0, 18, 27, 5])):
            # A view of the batch whose words are already packed, and a view
            # of a fresh batch that packs its own rows.
            fresh = EncodedPairBatch.from_lists(reads, segments)
            for view in (pairs[rows], fresh[rows]):
                estimates, accepted = instance.filter_batch(view)
                assert np.array_equal(estimates, whole_estimates[rows])
                assert np.array_equal(accepted, whole_accepted[rows])

    @pytest.mark.parametrize("key", available_filters())
    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_engine_handles_n_containing_pairs(self, key, threshold):
        rng = np.random.default_rng(hash((key, threshold)) % 2**32)
        length = 64
        read, ref = _random_pairs(rng, 40, length)
        reads = _codes_to_strings(read)
        segments = _codes_to_strings(ref)
        # Inject Ns into a handful of reads and segments.
        for i in range(0, 40, 7):
            reads[i] = "N" + reads[i][1:]
        for i in range(3, 40, 11):
            segments[i] = segments[i][:-1] + "N"
        engine = FilterEngine(key, read_length=length, error_threshold=threshold)
        result = engine.filter_encoded(EncodedPairBatch.from_lists(reads, segments))
        instance = get_filter(key, threshold)
        for i in range(40):
            expect = instance.filter_pair(reads[i], segments[i])
            assert bool(result.accepted[i]) == expect.accepted, (key, i)
            assert int(result.estimated_edits[i]) == expect.estimated_edits, (key, i)
        undefined_rows = {i for i in range(0, 40, 7)} | {i for i in range(3, 40, 11)}
        assert set(np.flatnonzero(result.undefined)) == undefined_rows

    @pytest.mark.parametrize("key", available_filters())
    def test_length_one_pairs(self, key):
        engine = FilterEngine(key, read_length=1, error_threshold=0)
        result = engine.filter_encoded(
            EncodedPairBatch.from_lists(["A", "T", "N"], ["A", "C", "G"])
        )
        instance = get_filter(key, 0)
        for i, (r, s) in enumerate(zip(["A", "T", "N"], ["A", "C", "G"])):
            assert bool(result.accepted[i]) == instance.filter_pair(r, s).accepted

    @pytest.mark.parametrize("key", available_filters())
    def test_encoded_batch_path_equals_string_path(self, key):
        rng = np.random.default_rng(hash(key) % 2**32)
        read, ref = _random_pairs(rng, 50, 100)
        reads, segments = _codes_to_strings(read), _codes_to_strings(ref)
        engine = FilterEngine(key, read_length=100, error_threshold=5, n_devices=2)
        via_encoded = engine.filter_encoded(EncodedPairBatch.from_lists(reads, segments))
        instance = get_filter(key, 5)
        for i, (read_i, segment_i) in enumerate(zip(reads, segments)):
            via_strings = instance.filter_pair(read_i, segment_i)
            assert bool(via_encoded.accepted[i]) == via_strings.accepted, (key, i)
            assert int(via_encoded.estimated_edits[i]) == via_strings.estimated_edits, (key, i)


class TestEmptyBatches:
    """Zero-pair batches yield empty int32 estimates and empty bool accepts."""

    @pytest.mark.parametrize("word_bits, n_words", [(64, 2), (32, 4)])
    def test_pack_codes_to_words_of_no_rows(self, word_bits, n_words):
        words = pack_codes_to_words(np.zeros((0, 50), dtype=np.uint8), word_bits)
        assert words.shape == (0, n_words)

    @pytest.mark.parametrize("key", available_filters())
    def test_every_filter(self, key, kernel_tier):
        instance = get_filter(key, 3)
        pairs = EncodedPairBatch.from_lists(["ACGT" * 10] * 3, ["ACGA" * 10] * 3)[2:2]
        assert pairs.read_words.shape == (0, 2)
        estimates, accepted = instance.filter_batch(pairs, tier=kernel_tier)
        no_codes = np.zeros((0, 40), dtype=np.uint8)
        batch = instance.estimate_edits_batch(no_codes, no_codes)
        for got in (estimates, batch):
            assert got.dtype == np.int32 and got.shape == (0,)
        assert accepted.dtype == bool and accepted.shape == (0,)
        if instance.native_kernel and kernel_tier == "native":
            # A twin that raised would have been disabled by the fallback.
            twin = getattr(native_kernels, instance.native_kernel)
            assert native._REGISTRY[instance.native_kernel]["native"] is twin
