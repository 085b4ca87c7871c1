"""Tests for the GateKeeper, GateKeeper-GPU and SHD filters."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.align import edit_distance
from repro.engine import FilterEngine
from repro.filters import (
    FilterDecision,
    GateKeeperFilter,
    GateKeeperGPUFilter,
    SHDFilter,
)
from repro.genomics.encoding import EncodedBatch, EncodedPairBatch, encode_batch_codes
from helpers import mutated_pair, random_sequence


def _codes(sequences):
    codes, _ = encode_batch_codes(sequences)
    return codes


class TestBasicDecisions:
    def test_exact_match_accepted_at_zero_threshold(self):
        f = GateKeeperGPUFilter(0)
        seq = "ACGTACGTACGTACGTACGT"
        result = f.filter_pair(seq, seq)
        assert result.decision is FilterDecision.ACCEPT
        assert result.estimated_edits == 0

    def test_single_mismatch_rejected_at_zero_threshold(self):
        f = GateKeeperGPUFilter(0)
        read = "ACGTACGTACGTACGTACGT"
        segment = read[:10] + "T" + read[11:]
        assert read != segment
        result = f.filter_pair(read, segment)
        assert result.decision is FilterDecision.REJECT
        assert result.estimated_edits >= 1

    def test_single_mismatch_accepted_at_one(self):
        f = GateKeeperGPUFilter(1)
        read = "ACGTACGTACGTACGTACGT"
        segment = read[:10] + "T" + read[11:]
        assert f.filter_pair(read, segment).accepted

    def test_random_pair_rejected_at_low_threshold(self, rng):
        f = GateKeeperGPUFilter(2)
        read = random_sequence(100, rng)
        segment = random_sequence(100, rng)
        # Random pairs have an edit distance around 50; the filter must reject.
        assert not f.filter_pair(read, segment).accepted

    def test_undefined_pair_passes_unfiltered(self):
        f = GateKeeperGPUFilter(0)
        read = "ACGTNCGTACGT"
        segment = "TTTTTTTTTTTT"
        result = f.filter_pair(read, segment)
        assert result.decision is FilterDecision.UNDEFINED
        assert result.accepted

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            GateKeeperGPUFilter(1).filter_pair("ACGT", "ACG")

    def test_negative_threshold_raises(self):
        with pytest.raises(ValueError):
            GateKeeperGPUFilter(-1)

    def test_filter_pairs_accepts_tuples_and_counts(self, small_pairs):
        f = GateKeeperGPUFilter(5)
        results = f.filter_pairs(small_pairs)
        assert len(results) == len(small_pairs)
        assert f.accept_count(small_pairs) == sum(1 for r in results if r.accepted)


class TestNoFalseRejects:
    """The headline accuracy property: pairs within the threshold always pass."""

    @pytest.mark.parametrize("threshold", [0, 2, 5, 10])
    def test_no_false_rejects_gkg(self, rng, threshold):
        f = GateKeeperGPUFilter(threshold)
        for _ in range(40):
            read, segment = mutated_pair(100, rng.randrange(0, threshold + 3), rng)
            true_distance = edit_distance(read, segment)
            if true_distance <= threshold:
                assert f.filter_pair(read, segment).accepted, (read, segment, true_distance)

    @pytest.mark.parametrize("filter_cls", [GateKeeperFilter, SHDFilter])
    def test_no_false_rejects_baselines(self, rng, filter_cls):
        f = filter_cls(5)
        for _ in range(40):
            read, segment = mutated_pair(100, rng.randrange(0, 8), rng)
            if edit_distance(read, segment) <= 5:
                assert f.filter_pair(read, segment).accepted

    def test_estimate_never_exceeds_window_count(self, rng):
        f = GateKeeperGPUFilter(5)
        read, segment = mutated_pair(100, 3, rng)
        assert f.estimate_edits(read, segment) <= 25  # ceil(100 / 4)


class TestGateKeeperVsGateKeeperGPU:
    def test_gkg_estimate_at_least_gk_estimate(self, small_pairs):
        gk = GateKeeperFilter(5)
        gkg = GateKeeperGPUFilter(5)
        for read, segment in small_pairs:
            if "N" in read or "N" in segment:
                continue
            assert gkg.estimate_edits(read, segment) >= gk.estimate_edits(read, segment)

    def test_gkg_rejects_at_least_as_many(self, rng):
        gk = GateKeeperFilter(6)
        gkg = GateKeeperGPUFilter(6)
        pairs = [mutated_pair(100, rng.randrange(5, 30), rng) for _ in range(60)]
        gk_rejects = sum(1 for r, s in pairs if not gk.filter_pair(r, s).accepted)
        gkg_rejects = sum(1 for r, s in pairs if not gkg.filter_pair(r, s).accepted)
        assert gkg_rejects >= gk_rejects

    def test_edge_error_visible_only_to_gkg(self):
        # A deletion right at the start of the read pushes the discrepancy to
        # the leading bases, which the original GateKeeper can miss entirely.
        segment = "TGCA" * 25
        read = segment[1:] + "A"  # delete the first base, pad at the end
        gk = GateKeeperFilter(1)
        gkg = GateKeeperGPUFilter(1)
        assert gkg.estimate_edits(read, segment) >= gk.estimate_edits(read, segment)

    def test_shd_decisions_match_gatekeeper(self, small_pairs):
        # The paper's comparison tables report identical counts for the two.
        gk = GateKeeperFilter(5)
        shd = SHDFilter(5)
        for read, segment in small_pairs:
            assert (
                gk.filter_pair(read, segment).accepted
                == shd.filter_pair(read, segment).accepted
            )

    def test_names(self):
        assert GateKeeperFilter(1).name == "GateKeeper"
        assert GateKeeperGPUFilter(1).name == "GateKeeper-GPU"
        assert SHDFilter(1).name == "SHD"


class TestThresholdMonotonicity:
    def test_accept_monotone_in_threshold(self, rng):
        read, segment = mutated_pair(100, 8, rng)
        accepted_at = [GateKeeperGPUFilter(e).filter_pair(read, segment).accepted for e in range(0, 12)]
        # Once accepted at some threshold, higher thresholds must also accept.
        first_accept = accepted_at.index(True) if True in accepted_at else len(accepted_at)
        assert all(accepted_at[i] for i in range(first_accept, len(accepted_at)))


class TestArgumentValidation:
    """Both kernel tiers must see the same arguments, so bad ones fail early."""

    @pytest.mark.parametrize("filter_cls", [GateKeeperFilter, GateKeeperGPUFilter, SHDFilter])
    @pytest.mark.parametrize(
        "kwargs",
        [{"count_window": 0}, {"count_window": -4}, {"max_zero_run": 0}, {"max_zero_run": 3}],
    )
    def test_constructor_rejects_unsupported_values(self, filter_cls, kwargs):
        (argument,) = kwargs
        with pytest.raises(ValueError, match=argument):
            filter_cls(5, **kwargs)

    def test_engine_rejects_zero_count_window(self):
        with pytest.raises(ValueError, match="count_window"):
            FilterEngine("gatekeeper", 100, 5, count_window=0)

    @pytest.mark.parametrize("count_window", [1, 3, 4, 8])
    @pytest.mark.parametrize("max_zero_run", [1, 2])
    def test_supported_values_match_reference(self, rng, count_window, max_zero_run):
        reads, segments = zip(*(mutated_pair(60, rng.randrange(0, 10), rng) for _ in range(10)))
        flt = GateKeeperGPUFilter(3, count_window=count_window, max_zero_run=max_zero_run)
        read_codes, ref_codes = _codes(reads), _codes(segments)
        expect = [flt.estimate_edits_codes(read_codes[i], ref_codes[i]) for i in range(10)]
        assert flt.estimate_edits_batch(read_codes, ref_codes).tolist() == expect


class TestFilterBatch:
    """filter_batch: the word kernel plus the undefined/threshold decision rule."""

    def test_undefined_pairs_pass(self, rng):
        pairs = EncodedPairBatch.from_lists(
            ["ACGTN" + random_sequence(95, rng)], [random_sequence(100, rng)]
        )
        estimates, accepted = GateKeeperGPUFilter(0).filter_batch(pairs)
        assert accepted[0]
        assert estimates[0] == 0

    def test_mixed_batch_decisions(self):
        reads = ["ACGTACGTACGTACGT", "ACGNACGTACGTACGT", "TTTTTTTTTTTTTTTT"]
        refs = ["ACGTACGTACGTACGT", "ACGTACGTACGTACGT", "ACGTACGTACGTACGT"]
        pairs = EncodedPairBatch.from_lists(reads, refs)
        estimates, accepted = GateKeeperGPUFilter(1).filter_batch(pairs)
        assert pairs.undefined.tolist() == [False, True, False]
        assert accepted.tolist() == [True, True, False]  # exact, undefined, dissimilar
        assert estimates[1] == 0

    def test_undefined_mask_override(self, rng):
        reads = EncodedBatch.from_strings([random_sequence(30, rng) for _ in range(4)])
        refs = EncodedBatch.from_strings([random_sequence(30, rng) for _ in range(4)])
        undefined = np.array([True, False, False, True])
        pairs = EncodedPairBatch(reads, refs, undefined=undefined)
        estimates, accepted = GateKeeperGPUFilter(1).filter_batch(pairs)
        assert accepted[0] and accepted[3]
        assert estimates[0] == 0 and estimates[3] == 0

    def test_shape_mismatch_raises(self, rng):
        reads = EncodedBatch.from_strings([random_sequence(64, rng) for _ in range(2)])
        refs = EncodedBatch.from_strings([random_sequence(64, rng) for _ in range(3)])
        # EncodedPairBatch refuses mismatched halves; a hand-built row view
        # must be refused by the filter itself.
        view = SimpleNamespace(
            read_codes=reads.codes,
            ref_codes=refs.codes,
            read_words=reads.words,
            ref_words=refs.words,
            undefined=reads.undefined,
            length=64,
        )
        with pytest.raises(ValueError, match="same shape"):
            GateKeeperGPUFilter(2).filter_batch(view)

    def test_250bp_threshold_25_matches_reference(self, rng):
        # The largest configuration in the paper: 250 bp at 10% threshold.
        reads, segments = zip(*(mutated_pair(250, rng.randrange(0, 40), rng) for _ in range(8)))
        read_codes, ref_codes = _codes(reads), _codes(segments)
        flt = GateKeeperGPUFilter(25)
        expect = [flt.estimate_edits_codes(read_codes[i], ref_codes[i]) for i in range(8)]
        assert flt.estimate_edits_batch(read_codes, ref_codes).tolist() == expect


class TestBatchMonotonicity:
    def test_zero_edge_policy_estimates_not_above_one_policy(self, rng):
        read_codes = _codes([random_sequence(80, rng) for _ in range(12)])
        ref_codes = _codes([random_sequence(80, rng) for _ in range(12)])
        zero = GateKeeperFilter(5).estimate_edits_batch(read_codes, ref_codes)
        one = GateKeeperGPUFilter(5).estimate_edits_batch(read_codes, ref_codes)
        assert np.all(one >= zero)

    def test_estimates_non_increasing_in_threshold(self, rng):
        read_codes = _codes([random_sequence(80, rng) for _ in range(10)])
        ref_codes = _codes([random_sequence(80, rng) for _ in range(10)])
        previous = None
        for threshold in range(0, 8):
            estimates = GateKeeperGPUFilter(threshold).estimate_edits_batch(read_codes, ref_codes)
            if previous is not None:
                assert np.all(estimates <= previous)
            previous = estimates
