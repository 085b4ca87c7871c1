"""Tests for the bit-vector helpers and the GateKeeper mask pipeline."""

import numpy as np
import pytest

from repro.filters.bitvector import (
    amend_mask,
    count_one_runs,
    count_set_windows,
    hamming_mask,
    longest_zero_run,
    shifted_mask,
    zero_run_lengths,
)
from repro.filters.masks import EdgePolicy, build_mask_set, final_bitvector
from repro.genomics import encode_to_codes


class TestHammingAndShiftedMasks:
    def test_hamming_mask_marks_mismatches(self):
        a = encode_to_codes("ACGTACGT")
        b = encode_to_codes("ACGAACGA")
        assert hamming_mask(a, b).tolist() == [0, 0, 0, 1, 0, 0, 0, 1]

    def test_hamming_mask_shape_mismatch(self):
        with pytest.raises(ValueError):
            hamming_mask(encode_to_codes("ACG"), encode_to_codes("ACGT"))

    def test_shifted_mask_zero_is_hamming(self):
        a = encode_to_codes("ACGTAC")
        b = encode_to_codes("ACCTAC")
        assert np.array_equal(shifted_mask(a, b, 0), hamming_mask(a, b))

    def test_shifted_mask_positive_shift_alignment(self):
        # read shifted right by 1: position j compares read[j-1] with ref[j].
        read = encode_to_codes("ACGT")
        ref = encode_to_codes("TACG")
        mask = shifted_mask(read, ref, 1, vacant_value=0)
        assert mask.tolist() == [0, 0, 0, 0]

    def test_shifted_mask_negative_shift_alignment(self):
        read = encode_to_codes("CGTA")
        ref = encode_to_codes("ACGT")
        mask = shifted_mask(read, ref, -1, vacant_value=0)
        # read[j+1] vs ref[j] for j<3 all mismatch? read[1:]=GTA vs ref[:3]=ACG -> mismatches
        assert mask[3] == 0  # vacant
        mask2 = shifted_mask(encode_to_codes("AACG"), encode_to_codes("ACGT"), -1, vacant_value=1)
        assert mask2.tolist() == [0, 0, 0, 1]

    def test_shift_larger_than_length(self):
        read = encode_to_codes("ACG")
        ref = encode_to_codes("ACG")
        assert shifted_mask(read, ref, 5, vacant_value=1).tolist() == [1, 1, 1]


class TestAmendment:
    def test_single_zero_flanked_is_flipped(self):
        assert amend_mask(np.array([1, 0, 1])).tolist() == [1, 1, 1]

    def test_double_zero_flanked_is_flipped(self):
        assert amend_mask(np.array([1, 0, 0, 1])).tolist() == [1, 1, 1, 1]

    def test_triple_zero_not_flipped(self):
        assert amend_mask(np.array([1, 0, 0, 0, 1])).tolist() == [1, 0, 0, 0, 1]

    def test_boundary_zeros_not_flipped(self):
        assert amend_mask(np.array([0, 1, 1])).tolist() == [0, 1, 1]
        assert amend_mask(np.array([1, 1, 0])).tolist() == [1, 1, 0]
        assert amend_mask(np.array([0, 0, 1, 0, 0])).tolist() == [0, 0, 1, 0, 0]

    def test_all_zero_mask_unchanged(self):
        assert amend_mask(np.zeros(8, dtype=np.uint8)).sum() == 0

    def test_custom_max_zero_run(self):
        mask = np.array([1, 0, 0, 0, 1])
        assert amend_mask(mask, max_zero_run=3).tolist() == [1, 1, 1, 1, 1]


class TestCounting:
    def test_count_set_windows_empty(self):
        assert count_set_windows(np.zeros(16, dtype=np.uint8)) == 0
        assert count_set_windows(np.array([], dtype=np.uint8)) == 0

    def test_count_set_windows_single_bit(self):
        mask = np.zeros(16, dtype=np.uint8)
        mask[5] = 1
        assert count_set_windows(mask) == 1

    def test_count_set_windows_multiple(self):
        mask = np.zeros(16, dtype=np.uint8)
        mask[[0, 1, 9, 15]] = 1
        assert count_set_windows(mask) == 3

    def test_count_set_windows_partial_tail(self):
        mask = np.zeros(10, dtype=np.uint8)
        mask[9] = 1
        assert count_set_windows(mask) == 1

    def test_count_one_runs(self):
        assert count_one_runs(np.array([0, 1, 1, 0, 1, 0, 1, 1, 1])) == 3
        assert count_one_runs(np.zeros(5, dtype=np.uint8)) == 0
        assert count_one_runs(np.ones(5, dtype=np.uint8)) == 1
        assert count_one_runs(np.array([], dtype=np.uint8)) == 0

    def test_zero_run_lengths(self):
        runs = zero_run_lengths(np.array([0, 0, 1, 0, 1, 0, 0, 0]))
        assert runs == [(0, 2), (3, 1), (5, 3)]

    def test_longest_zero_run(self):
        mask = np.array([1, 0, 0, 1, 0, 0, 0, 1])
        assert longest_zero_run(mask) == (4, 3)
        assert longest_zero_run(mask, 0, 4) == (1, 2)
        assert longest_zero_run(np.ones(4, dtype=np.uint8)) == (0, 0)


class TestMaskSet:
    def test_mask_set_shapes(self):
        read = encode_to_codes("ACGTACGTAC")
        ref = encode_to_codes("ACGTACGTAC")
        ms = build_mask_set(read, ref, 3)
        assert ms.masks.shape == (7, 10)
        assert ms.shifts.tolist() == [0, 1, -1, 2, -2, 3, -3]
        assert ms.n_bases == 10

    def test_exact_match_final_is_zero(self):
        read = encode_to_codes("ACGTACGTACGTACGT")
        final = final_bitvector(read, read, 2)
        assert final.sum() == 0

    def test_edge_policy_one_forces_vacant_bits(self):
        read = encode_to_codes("ACGTACGTAC")
        ref = encode_to_codes("ACGTACGTAC")
        ms_zero = build_mask_set(read, ref, 2, edge_policy=EdgePolicy.ZERO)
        ms_one = build_mask_set(read, ref, 2, edge_policy=EdgePolicy.ONE)
        # The shifted masks of the ONE policy start/end with forced ones.
        row_shift_2 = list(ms_one.shifts).index(2)
        assert ms_one.masks[row_shift_2, :2].tolist() == [1, 1]
        assert ms_zero.masks[row_shift_2, :2].tolist() == [0, 0]

    def test_gkg_final_never_below_gk_final(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            read = rng.integers(0, 4, 60).astype(np.uint8)
            ref = rng.integers(0, 4, 60).astype(np.uint8)
            gk = final_bitvector(read, ref, 4, edge_policy=EdgePolicy.ZERO)
            gkg = final_bitvector(read, ref, 4, edge_policy=EdgePolicy.ONE)
            assert np.all(gkg >= gk)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            build_mask_set(encode_to_codes("ACG"), encode_to_codes("ACGT"), 1)
