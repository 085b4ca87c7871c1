"""Tests for the verification stage and ground-truth labelling."""

import numpy as np
import pytest

from repro.align import (
    Verifier,
    edit_distance,
    ground_truth_distances,
    ground_truth_labels,
)
from repro.genomics.encoding import EncodedPairBatch
from helpers import mutated_pair


class TestVerifier:
    def test_accepts_within_threshold(self, rng):
        verifier = Verifier(error_threshold=5)
        read, segment = mutated_pair(80, 3, rng)
        result = verifier.verify(read, segment)
        assert result.accepted == (edit_distance(read, segment) <= 5)

    def test_banded_and_full_agree_on_decision(self, rng):
        pairs = [mutated_pair(60, rng.randrange(0, 12), rng) for _ in range(15)]
        reads, segments = [p[0] for p in pairs], [p[1] for p in pairs]
        distances = Verifier(5).verify_batch(
            EncodedPairBatch.from_lists(reads, segments), np.arange(15)
        )
        for (read, segment), distance in zip(pairs, distances):
            assert (distance <= 5) == (edit_distance(read, segment) <= 5)

    def test_counts_pairs_verified(self, rng):
        verifier = Verifier(3)
        pairs = [mutated_pair(40, 1, rng) for _ in range(6)] + [("N" * 40, "A" * 40)]
        reads, segments = [p[0] for p in pairs], [p[1] for p in pairs]
        batch = EncodedPairBatch.from_lists(reads, segments)
        verifier.verify_batch(batch, np.arange(7))
        assert verifier.pairs_verified == 7

    def test_negative_threshold_raises(self):
        with pytest.raises(ValueError):
            Verifier(-1)


class TestGroundTruth:
    def test_distances_match_edit_distance(self, rng):
        pairs = [mutated_pair(50, rng.randrange(0, 8), rng) for _ in range(10)]
        distances = ground_truth_distances(pairs)
        for (read, segment), d in zip(pairs, distances):
            assert d == edit_distance(read, segment)

    def test_labels_threshold(self, rng):
        pairs = [mutated_pair(50, rng.randrange(0, 10), rng) for _ in range(10)]
        labels = ground_truth_labels(pairs, 4)
        for (read, segment), label in zip(pairs, labels):
            assert label == (edit_distance(read, segment) <= 4)

    def test_undefined_pairs_labelled_accepted(self):
        pairs = [("ACGTN" * 10, "TTTTT" * 10)]
        assert ground_truth_labels(pairs, 0)[0]
        assert not ground_truth_labels(pairs, 0, undefined_accepted=False)[0]
