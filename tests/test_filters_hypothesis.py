"""Property-based differential tests: packed kernels vs per-base references.

Hypothesis drives random sequences, lengths and thresholds through the packed
bit-sliced kernels (:mod:`repro.filters.packed`, the GateKeeper word
kernel) and asserts bit-for-bit agreement with the per-base reference
implementations in :mod:`repro.filters.bitvector` / :mod:`repro.filters.masks`,
through the three native kernel sources against their NumPy twins, and
through every registered filter's ``estimate_edits_batch`` (its word kernel)
against its per-pair scalar path, and through every filter's ``filter_batch``
decisions on ``N``-containing batches against ``filter_pair``.  Runs are
derandomised (fixed example corpus) so the tier-1 suite stays deterministic
and fast.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.engine import available_filters, get_filter
from repro.filters import GateKeeperFilter, GateKeeperGPUFilter, packed
from repro.filters.native import _kernels as native_kernels
from repro.filters.native import resolve
from repro.filters.bitvector import amend_mask, count_set_windows
from repro.filters.masks import EdgePolicy, build_mask_set
from repro.filters.shouji import neighborhood_map_batch
from repro.genomics.encoding import EncodedPairBatch, pack_codes_to_words
from helpers import from_planes, plane_bits, to_planes

#: Deterministic, time-bounded profile for the tier-1 suite: fixed example
#: corpus (derandomize), no per-example deadline (cold numpy warms up slowly).
COMMON = dict(deadline=None, derandomize=True)

MAX_LENGTH = 96
MAX_PAIRS = 12


@st.composite
def pair_batches(draw):
    """Correlated read/reference code batches (reads mostly equal their refs)."""
    length = draw(st.integers(min_value=1, max_value=MAX_LENGTH))
    n_pairs = draw(st.integers(min_value=1, max_value=MAX_PAIRS))
    shape = (n_pairs, length)
    codes = st.integers(min_value=0, max_value=3)
    ref = draw(hnp.arrays(np.uint8, shape, elements=codes))
    substitute = draw(hnp.arrays(np.uint8, shape, elements=codes))
    flips = draw(hnp.arrays(np.bool_, shape))
    read = np.where(flips, substitute, ref).astype(np.uint8)
    return read, ref


@st.composite
def bit_masks(draw):
    """Random 0/1 mask batches of arbitrary width."""
    length = draw(st.integers(min_value=1, max_value=MAX_LENGTH))
    n_rows = draw(st.integers(min_value=1, max_value=MAX_PAIRS))
    return draw(
        hnp.arrays(
            np.uint8, (n_rows, length), elements=st.integers(min_value=0, max_value=1)
        )
    )


class TestPackedPrimitiveProperties:
    @settings(max_examples=25, **COMMON)
    @given(mask=bit_masks(), max_zero_run=st.integers(min_value=1, max_value=2))
    def test_amend_planes_matches_reference(self, mask, max_zero_run):
        n_rows, length = mask.shape
        padded = np.zeros((length + 4, 1), dtype=np.uint64)
        padded[2:-2] = to_planes(mask)
        got = from_planes(packed.amend_planes(padded, max_zero_run=max_zero_run), n_rows)
        expect = np.stack([amend_mask(m, max_zero_run=max_zero_run) for m in mask])
        assert np.array_equal(got, expect)

    @settings(max_examples=25, **COMMON)
    @given(mask=bit_masks(), window=st.integers(min_value=1, max_value=8))
    def test_count_plane_windows_matches_reference(self, mask, window):
        got = packed.count_plane_windows(to_planes(mask), window=window)[: mask.shape[0]]
        expect = np.array([count_set_windows(m, window=window) for m in mask])
        assert np.array_equal(got, expect)

    @settings(max_examples=25, **COMMON)
    @given(
        rows=hnp.arrays(
            np.uint64,
            st.tuples(st.just(64), st.integers(min_value=1, max_value=3)),
            elements=st.integers(min_value=0, max_value=2**64 - 1),
        )
    )
    def test_transpose_bit_blocks_matches_unpackbits(self, rows):
        original = rows.copy()
        bits = plane_bits(original)  # bits[r, col, c]: bit c of row r
        got = packed.transpose_bit_blocks(rows)
        assert np.array_equal(plane_bits(got), bits.transpose(2, 1, 0))
        assert np.array_equal(packed.transpose_bit_blocks(got), original)

    @settings(max_examples=25, **COMMON)
    @given(batch=pair_batches(), threshold=st.integers(min_value=0, max_value=6))
    def test_chip_maze_matches_per_base_map(self, batch, threshold):
        read, ref = batch
        n_pairs, length = read.shape
        maze = packed.chip_maze(
            *packed.bit_planes(
                pack_codes_to_words(read, 64), pack_codes_to_words(ref, 64), length
            ),
            threshold,
        )
        got = np.stack(
            [from_planes(maze[:, i], n_pairs) for i in range(2 * threshold + 1)], axis=1
        )
        assert np.array_equal(got, neighborhood_map_batch(read, ref, threshold))


class TestGateKeeperKernelProperties:
    @settings(max_examples=20, **COMMON)
    @given(
        batch=pair_batches(),
        threshold=st.integers(min_value=0, max_value=6),
        edge_policy=st.sampled_from([EdgePolicy.ZERO, EdgePolicy.ONE]),
    )
    def test_kernel_matches_scalar_mask_pipeline(self, batch, threshold, edge_policy):
        read, ref = batch
        length = read.shape[1]
        filter_cls = GateKeeperGPUFilter if edge_policy == EdgePolicy.ONE else GateKeeperFilter
        estimates = filter_cls(threshold).estimate_edits_words(
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


def _twin(name):
    """The registered NumPy reference implementation of a native kernel."""
    fn, tier = resolve(name, "numpy")
    assert tier == "numpy"
    return fn


class TestNativeKernelDifferentials:
    """Every native kernel source against its registered NumPy twin.

    The ``_kernels`` functions run here as plain Python when Numba is not
    installed (the ``@njit`` decorator degrades to identity), so the same
    assertions cover both the uncompiled sources and — on CI with the
    ``[native]`` extra — the compiled machine code.
    """

    @settings(max_examples=10, **COMMON)
    @given(
        batch=pair_batches(),
        threshold=st.integers(min_value=0, max_value=6),
        edge_one=st.booleans(),
    )
    def test_gatekeeper_kernel(self, batch, threshold, edge_one):
        read, ref = batch
        length = read.shape[1]
        read_words = pack_codes_to_words(read, 64)
        ref_words = pack_codes_to_words(ref, 64)
        got = native_kernels.gatekeeper_kernel(
            read_words, ref_words, length, threshold, edge_one, 4, 2
        )
        expect = _twin("gatekeeper_kernel")(
            read_words, ref_words, length, threshold, edge_one, 4, 2
        )
        assert got.dtype == expect.dtype
        assert np.array_equal(got, expect)

    @settings(max_examples=10, **COMMON)
    @given(batch=pair_batches(), threshold=st.integers(min_value=0, max_value=6))
    def test_sneakysnake_kernel(self, batch, threshold):
        read, ref = batch
        length = read.shape[1]
        read_words = pack_codes_to_words(read, 64)
        ref_words = pack_codes_to_words(ref, 64)
        got = native_kernels.sneakysnake_kernel(
            read_words, ref_words, length, threshold
        )
        expect = _twin("sneakysnake_kernel")(read_words, ref_words, length, threshold)
        assert np.array_equal(got, expect)

    @settings(max_examples=10, **COMMON)
    @given(batch=pair_batches(), threshold=st.integers(min_value=0, max_value=6))
    def test_magnet_kernel(self, batch, threshold):
        read, ref = batch
        length = read.shape[1]
        read_words = pack_codes_to_words(read, 64)
        ref_words = pack_codes_to_words(ref, 64)
        got = native_kernels.magnet_kernel(read_words, ref_words, length, threshold)
        expect = _twin("magnet_kernel")(read_words, ref_words, length, threshold)
        assert np.array_equal(got, expect)


class TestFilterEstimateProperties:
    @pytest.mark.parametrize("key", available_filters())
    @settings(max_examples=15, **COMMON)
    @given(batch=pair_batches(), threshold=st.integers(min_value=0, max_value=6))
    def test_batch_estimates_match_scalar(self, key, batch, threshold):
        read, ref = batch
        instance = get_filter(key, threshold)
        batch_edits = instance.estimate_edits_batch(read, ref)
        scalar = np.array(
            [
                instance.estimate_edits_codes(read[i], ref[i])
                for i in range(read.shape[0])
            ],
            dtype=np.int32,
        )
        assert np.array_equal(batch_edits, scalar)

    @pytest.mark.parametrize("key", available_filters())
    @settings(max_examples=15, **COMMON)
    @given(
        batch=pair_batches(),
        threshold=st.integers(min_value=0, max_value=6),
        unknown=st.lists(st.sampled_from(["", "read", "ref"]), min_size=MAX_PAIRS),
    )
    def test_filter_batch_matches_filter_pair(self, key, batch, threshold, unknown):
        read, ref = batch
        length = read.shape[1]
        reads = ["".join("ACGT"[c] for c in row) for row in read]
        segments = ["".join("ACGT"[c] for c in row) for row in ref]
        for i in range(len(reads)):
            position = i % length
            if unknown[i] == "read":
                reads[i] = reads[i][:position] + "N" + reads[i][position + 1 :]
            elif unknown[i] == "ref":
                segments[i] = segments[i][:position] + "N" + segments[i][position + 1 :]
        instance = get_filter(key, threshold)
        estimates, accepted = instance.filter_batch(
            EncodedPairBatch.from_lists(reads, segments)
        )
        for i in range(len(reads)):
            expect = instance.filter_pair(reads[i], segments[i])
            assert bool(accepted[i]) == expect.accepted, i
            assert int(estimates[i]) == expect.estimated_edits, i
