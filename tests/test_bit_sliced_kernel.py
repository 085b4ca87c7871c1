"""Every bit-sliced NumPy kernel across 64-pair blocks.

``gatekeeper_kernel``, ``sneakysnake_kernel``, Shouji's word path and
``magnet_kernel`` hold one bit per pair, 64 pairs per ``uint64`` word, so
every batch larger than 64 pairs is split over several blocks and the last
block is padded.  These tests pin each kernel (the NumPy tier, and the
native tier where Numba is installed) to its per-base reference on batches
of 0 to 1,000 pairs (2,049 for MAGNET, whose kernel also works in blocks of
2,048 pairs), across read lengths on either side of the 32-base code word,
thresholds up to and past the read length and, for GateKeeper, both edge
policies, both amendment run lengths and several window widths (Shouji:
window widths 1 to 8); and ``filter_batch`` of an ``N``-containing
multi-block batch against ``filter_pair``.  The GateKeeper reference
(``build_mask_set`` + ``count_set_windows``) is a Python loop, so each mask
set is built once per pair and reused: the mask set of a threshold ``e`` is
the first ``2e + 1`` rows of any larger threshold's.  The other references
are each filter's ``estimate_edits_codes``, one pair at a time; the
uncompiled SneakySnake and MAGNET twins, also Python loops, run on batches
of up to 129 pairs.
"""

import numpy as np
import pytest

from repro.engine import get_filter
from repro.filters import packed
from repro.filters.bitvector import count_set_windows
from repro.filters.gatekeeper import gatekeeper_kernel
from repro.filters.magnet import MagnetFilter, magnet_kernel
from repro.filters.masks import EdgePolicy, build_mask_set
from repro.filters.native import _kernels as native_kernels
from repro.filters.native import resolve
from repro.filters.shouji import ShoujiFilter
from repro.filters.sneakysnake import SneakySnakeFilter, sneakysnake_kernel
from repro.genomics.encoding import EncodedPairBatch, pack_codes_to_words
from helpers import from_planes, plane_bits

EDGE_POLICIES = [EdgePolicy.ZERO, EdgePolicy.ONE]
BLOCK_SIZES = [1, 63, 64, 65, 129, 1000]
LENGTHS = [1, 31, 32, 33, 64, 65, 100, 150]
WINDOWS = [1, 3, 4, 5, 8]
SNAKE_LENGTHS = [1, 2, 31, 32, 33, 64, 65, 100, 150, 250]
SNAKE_THRESHOLDS = [0, 1, 5, 10]
SHOUJI_WINDOWS = [1, 2, 3, 4, 5, 8]
#: The uncompiled twin is a Python loop: it runs on batches up to this size.
TWIN_MAX_PAIRS = 129


def _kernels():
    """The NumPy kernel and the native tier's (the NumPy one without Numba)."""
    return [gatekeeper_kernel, resolve("gatekeeper_kernel", "native")[0]]


def _pairs(rng, n_pairs, length):
    """Reads with substitutions at varying rates and, in half of them, one indel."""
    ref = rng.integers(0, 4, size=(n_pairs, length)).astype(np.uint8)
    read = ref.copy()
    for i in range(n_pairs):
        if length > 2 and rng.random() < 0.5:
            at = int(rng.integers(1, length - 1))
            k = int(rng.integers(1, 4))
            fill = rng.integers(0, 4, size=length).astype(np.uint8)
            if rng.random() < 0.5:  # deletion: the read skips k reference bases
                read[i, at:] = np.concatenate([ref[i, at + k :], fill[: min(k, length - at)]])
            else:  # insertion: k extra bases in the read
                read[i, at:] = np.concatenate([fill[:k], ref[i, at:]])[: length - at]
        subs = rng.random(length) < rng.random() * 0.15
        read[i, subs] = rng.integers(0, 4, size=int(subs.sum()))
    return read, ref


def _mask_sets(read, ref, error_threshold, edge_policy, max_zero_run):
    """The reference amended masks of every pair, shifts 0, 1, -1, ..., e, -e."""
    return [
        build_mask_set(
            read[i], ref[i], error_threshold, edge_policy=edge_policy, max_zero_run=max_zero_run
        ).masks
        for i in range(read.shape[0])
    ]


def _expected(mask_sets, error_threshold, window):
    """Reference estimates: the AND of the first 2e + 1 masks, counted in windows."""
    return np.array(
        [
            count_set_windows(
                np.bitwise_and.reduce(masks[: 2 * error_threshold + 1], axis=0), window=window
            )
            for masks in mask_sets
        ],
        dtype=np.int32,
    )


def _check(read, ref, error_threshold, edge_policy, window, max_zero_run, expect):
    read_words, ref_words = pack_codes_to_words(read, 64), pack_codes_to_words(ref, 64)
    for kernel in _kernels():
        got = kernel(
            read_words, ref_words, read.shape[1], error_threshold,
            edge_policy == EdgePolicy.ONE, window, max_zero_run,
        )
        assert got.dtype == np.int32 and got.shape == (read.shape[0],)
        assert np.array_equal(got, expect), (kernel, error_threshold, window)


class TestBitPlanes:
    @pytest.mark.parametrize("n_pairs", [1, 63, 64, 65, 129])
    @pytest.mark.parametrize("length", [1, 31, 32, 33, 65, 100])
    def test_planes_hold_each_pairs_code_bits(self, n_pairs, length):
        rng = np.random.default_rng((n_pairs, length))
        read, ref = _pairs(rng, n_pairs, length)
        planes = packed.bit_planes(
            pack_codes_to_words(read, 64), pack_codes_to_words(ref, 64), length
        )
        n_blocks = -(-n_pairs // 64)
        assert planes.shape == (2, 2, length, n_blocks)
        for side, codes in enumerate((read, ref)):
            for bit in (0, 1):
                expect = (codes >> (1 - bit)) & 1
                assert np.array_equal(from_planes(planes[side, bit], n_pairs), expect)
                assert not plane_bits(planes[side, bit]).reshape(length, -1)[:, n_pairs:].any()

    def test_transpose_swaps_row_and_bit_indices(self):
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 2**63, size=(64, 2, 3)).astype(np.uint64) << np.uint64(1)
        rows |= rng.integers(0, 2, size=rows.shape).astype(np.uint64)
        original = rows.copy()
        out = packed.transpose_bit_blocks(rows)
        assert out is rows
        for r in range(64):
            for c in range(64):
                assert (int(out[c, 1, 2]) >> r) & 1 == (int(original[r, 1, 2]) >> c) & 1
        packed.transpose_bit_blocks(rows)
        assert np.array_equal(rows, original)

    def test_transpose_rejects_other_shapes(self):
        for bad in (np.zeros((32, 2), np.uint64), np.zeros((64, 2), np.uint32),
                    np.zeros((2, 64), np.uint64).T):
            with pytest.raises(ValueError):
                packed.transpose_bit_blocks(bad)


class TestKernelAcrossBlocks:
    @pytest.mark.parametrize("n_pairs", BLOCK_SIZES)
    @pytest.mark.parametrize("edge_policy", EDGE_POLICIES)
    def test_batch_sizes(self, n_pairs, edge_policy):
        rng = np.random.default_rng((n_pairs, EDGE_POLICIES.index(edge_policy)))
        read, ref = _pairs(rng, n_pairs, 100)
        mask_sets = _mask_sets(read, ref, 5, edge_policy, 2)
        _check(read, ref, 5, edge_policy, 4, 2, _expected(mask_sets, 5, 4))

    @pytest.mark.parametrize("length", LENGTHS)
    @pytest.mark.parametrize("edge_policy", EDGE_POLICIES)
    @pytest.mark.parametrize("max_zero_run", [1, 2])
    def test_lengths_thresholds_and_windows(self, length, edge_policy, max_zero_run):
        rng = np.random.default_rng((length, EDGE_POLICIES.index(edge_policy), max_zero_run))
        read, ref = _pairs(rng, 65, length)
        mask_sets = _mask_sets(read, ref, 5, edge_policy, max_zero_run)
        for error_threshold in (0, 1, 5):
            for window in WINDOWS:
                expect = _expected(mask_sets, error_threshold, window)
                _check(read, ref, error_threshold, edge_policy, window, max_zero_run, expect)

    @pytest.mark.parametrize("length", LENGTHS)
    @pytest.mark.parametrize("edge_policy", EDGE_POLICIES)
    def test_thresholds_at_and_past_the_length(self, length, edge_policy):
        # Shifts of the read length or more leave no base to compare.  The
        # reference costs O(length^2) per pair here, so the two longest reads
        # run one block of three pairs; the tests above take them across blocks.
        rng = np.random.default_rng((length, 7, EDGE_POLICIES.index(edge_policy)))
        n_pairs = 65 if length <= 65 else 3
        read, ref = _pairs(rng, n_pairs, length)
        max_zero_run = 1 + length % 2
        mask_sets = _mask_sets(read, ref, length + 3, edge_policy, max_zero_run)
        for error_threshold in (length, length + 3):
            for window in (1, 4):
                expect = _expected(mask_sets, error_threshold, window)
                _check(read, ref, error_threshold, edge_policy, window, max_zero_run, expect)

    def test_n_containing_multi_block_batch_through_filter_batch(self):
        rng = np.random.default_rng(11)
        read, ref = _pairs(rng, 150, 100)
        reads = ["".join("ACGT"[c] for c in row) for row in read]
        segments = ["".join("ACGT"[c] for c in row) for row in ref]
        for i in range(0, 150, 13):
            reads[i] = reads[i][:40] + "N" + reads[i][41:]
        for i in range(5, 150, 17):
            segments[i] = "N" + segments[i][1:]
        pairs = EncodedPairBatch.from_lists(reads, segments)
        assert pairs.undefined.sum() > 0
        for key in ("gatekeeper", "gatekeeper-gpu", "shd", "magnet", "shouji", "sneakysnake"):
            instance = get_filter(key, 4)
            expect = [instance.filter_pair(r, s) for r, s in zip(reads, segments)]
            for tier in ("numpy", "native"):
                estimates, accepted = instance.filter_batch(pairs, tier=tier)
                assert [int(x) for x in estimates] == [r.estimated_edits for r in expect]
                assert [bool(x) for x in accepted] == [r.accepted for r in expect]


def _codes_expected(instance, read, ref):
    """Reference estimates of ``instance``, one ``estimate_edits_codes`` per pair."""
    return np.array(
        [instance.estimate_edits_codes(r, s) for r, s in zip(read, ref)], dtype=np.int32
    )


def _check_snake(read, ref, error_threshold, twin):
    """Every SneakySnake kernel against the reference; returns the estimates."""
    n_pairs, length = read.shape
    read_words, ref_words = pack_codes_to_words(read, 64), pack_codes_to_words(ref, 64)
    expect = _codes_expected(SneakySnakeFilter(error_threshold), read, ref)
    kernels = [sneakysnake_kernel, resolve("sneakysnake_kernel", "native")[0]]
    if twin:
        kernels.append(native_kernels.sneakysnake_kernel)
    for kernel in kernels:
        got = kernel(read_words, ref_words, length, error_threshold)
        assert got.dtype == np.int32 and got.shape == (n_pairs,)
        assert np.array_equal(got, expect), (kernel, length, error_threshold)
    return expect


class TestSneakySnakeAcrossBlocks:
    @pytest.mark.parametrize("n_pairs", BLOCK_SIZES)
    def test_batch_sizes(self, n_pairs):
        rng = np.random.default_rng((n_pairs, 100))
        read, ref = _pairs(rng, n_pairs, 100)
        for error_threshold in SNAKE_THRESHOLDS:
            _check_snake(read, ref, error_threshold, twin=n_pairs <= TWIN_MAX_PAIRS)

    @pytest.mark.parametrize("length", SNAKE_LENGTHS)
    def test_lengths_and_thresholds(self, length):
        rng = np.random.default_rng((length, 13))
        read, ref = _pairs(rng, 65, length)
        for error_threshold in SNAKE_THRESHOLDS:
            _check_snake(read, ref, error_threshold, twin=True)

    @pytest.mark.parametrize("length", SNAKE_LENGTHS)
    def test_thresholds_at_and_past_the_length(self, length):
        # Diagonals of the read length or more meet no reference base: every
        # column of theirs is an obstacle.  The twin walks (2e + 1) * length
        # cells per pair, so it runs on the short reads only.
        rng = np.random.default_rng((length, 17))
        read, ref = _pairs(rng, 65, length)
        for error_threshold in sorted({max(length - 1, 0), length, length + 3}):
            _check_snake(read, ref, error_threshold, twin=length <= 33)

    def test_saturated_pairs_report_e_plus_one(self):
        # Reads of all A against references of all C block every cell of the
        # maze, so the greedy walk crosses all 100 columns; unrelated random
        # pairs cross far more than e + 1 too.  Both sit in every block,
        # between pairs that match exactly.
        rng = np.random.default_rng(23)
        read, ref = _pairs(rng, 200, 100)
        walls = np.arange(3, 200, 31)
        read[walls], ref[walls] = 0, 1
        unrelated = np.arange(10, 200, 37)
        read[unrelated] = rng.integers(0, 4, size=(unrelated.size, 100))
        exact = np.arange(20, 200, 43)
        read[exact] = ref[exact]
        for error_threshold in SNAKE_THRESHOLDS:
            expect = _check_snake(read, ref, error_threshold, twin=False)
            assert (expect[walls] == error_threshold + 1).all()
            assert (expect[unrelated] == error_threshold + 1).all()
            assert not expect[exact].any()

    def test_empty_batches_and_length_zero(self):
        empty = np.zeros((0, 100), dtype=np.uint8)
        _check_snake(empty, empty, 5, twin=True)
        no_bases = np.zeros((70, 0), dtype=np.uint8)
        for error_threshold in (0, 5):
            assert not _check_snake(no_bases, no_bases, error_threshold, twin=True).any()


def _check_shouji(read, ref, error_threshold, windows):
    """Shouji's word path against the reference at each window width."""
    n_pairs, length = read.shape
    read_words, ref_words = pack_codes_to_words(read, 64), pack_codes_to_words(ref, 64)
    for window in windows:
        instance = ShoujiFilter(error_threshold, window)
        got = instance.estimate_edits_words(read_words, ref_words, length)
        assert got.dtype == np.int32 and got.shape == (n_pairs,)
        expect = _codes_expected(instance, read, ref)
        assert np.array_equal(got, expect), (length, error_threshold, window)


def _check_magnet(read, ref, error_threshold, twin):
    """Every MAGNET kernel against the reference."""
    n_pairs, length = read.shape
    read_words, ref_words = pack_codes_to_words(read, 64), pack_codes_to_words(ref, 64)
    expect = _codes_expected(MagnetFilter(error_threshold), read, ref)
    kernels = [magnet_kernel, resolve("magnet_kernel", "native")[0]]
    if twin:
        kernels.append(native_kernels.magnet_kernel)
    for kernel in kernels:
        got = kernel(read_words, ref_words, length, error_threshold)
        assert got.dtype == np.int32 and got.shape == (n_pairs,)
        assert np.array_equal(got, expect), (kernel, length, error_threshold)


class TestShoujiAcrossBlocks:
    @pytest.mark.parametrize("n_pairs", BLOCK_SIZES)
    def test_batch_sizes(self, n_pairs):
        rng = np.random.default_rng((n_pairs, 200))
        read, ref = _pairs(rng, n_pairs, 100)
        # The per-pair reference is slow, so 1,000 pairs run one threshold.
        for error_threshold in SNAKE_THRESHOLDS if n_pairs <= TWIN_MAX_PAIRS else [5]:
            _check_shouji(read, ref, error_threshold, [4])

    @pytest.mark.parametrize("length", SNAKE_LENGTHS)
    def test_lengths_thresholds_and_windows(self, length):
        # Every window width at one threshold, every threshold at two widths:
        # the paper's four columns and one that does not divide 32 or 64.
        rng = np.random.default_rng((length, 19))
        read, ref = _pairs(rng, 65, length)
        _check_shouji(read, ref, 5, SHOUJI_WINDOWS)
        for error_threshold in (0, 1, 10):
            _check_shouji(read, ref, error_threshold, [3, 4])

    @pytest.mark.parametrize("length", SNAKE_LENGTHS)
    def test_thresholds_at_and_past_the_length(self, length):
        # Diagonals of the read length or more meet no reference base, so
        # every window of theirs is all obstacles.  The reference scans
        # (2e + 1) diagonals per window, so the longest reads run 3 pairs.
        rng = np.random.default_rng((length, 23))
        read, ref = _pairs(rng, 65 if length <= 65 else 3, length)
        for error_threshold in sorted({max(length - 1, 0), length, length + 3}):
            _check_shouji(read, ref, error_threshold, [1, 4])


class TestMagnetAcrossBlocks:
    @pytest.mark.parametrize("n_pairs", BLOCK_SIZES + [2049])
    def test_batch_sizes(self, n_pairs):
        # 2,049 pairs take the kernel past its 2,048-pair extraction block.
        rng = np.random.default_rng((n_pairs, 300))
        read, ref = _pairs(rng, n_pairs, 100)
        small = n_pairs <= TWIN_MAX_PAIRS
        for error_threshold in SNAKE_THRESHOLDS if small else [5]:
            _check_magnet(read, ref, error_threshold, twin=small)

    @pytest.mark.parametrize("length", SNAKE_LENGTHS)
    def test_lengths_and_thresholds(self, length):
        rng = np.random.default_rng((length, 29))
        read, ref = _pairs(rng, 65, length)
        for error_threshold in SNAKE_THRESHOLDS:
            _check_magnet(read, ref, error_threshold, twin=length <= 100)

    @pytest.mark.parametrize("length", SNAKE_LENGTHS)
    def test_thresholds_at_and_past_the_length(self, length):
        # Shifts of the read length or more leave every position vacant, so
        # those masks are all mismatches.  The twin and the reference cost
        # O(e * length) per pair, so the longest reads run one block.
        rng = np.random.default_rng((length, 31))
        read, ref = _pairs(rng, 65 if length <= 65 else 3, length)
        for error_threshold in sorted({max(length - 1, 0), length, length + 3}):
            _check_magnet(read, ref, error_threshold, twin=length <= 33)


class TestEmptyShoujiAndMagnet:
    @pytest.mark.parametrize("key", ["shouji", "magnet"])
    @pytest.mark.parametrize("tier", ["numpy", "native"])
    def test_filter_batch_of_no_pairs_and_no_bases(self, key, tier):
        empty = EncodedPairBatch.from_lists([], [])
        no_bases = EncodedPairBatch.from_lists([""] * 70, [""] * 70)
        for error_threshold in (0, 5):
            instance = get_filter(key, error_threshold)
            for pairs, n_pairs in ((empty, 0), (no_bases, 70)):
                estimates, accepted = instance.filter_batch(pairs, tier=tier)
                assert estimates.dtype == np.int32 and estimates.shape == (n_pairs,)
                assert not estimates.any() and accepted.all()

    def test_kernels_of_no_pairs_and_no_bases(self):
        for codes in (np.zeros((0, 100), np.uint8), np.zeros((70, 0), np.uint8)):
            _check_magnet(codes, codes, 5, twin=True)
            _check_shouji(codes, codes, 5, SHOUJI_WINDOWS)
