"""Tests for the alignment substrate: exact and banded edit distances."""

import pytest

from repro.align import (
    banded_edit_distance,
    dp_edit_distance,
    edit_distance,
    myers_edit_distance,
    within_threshold,
)
from helpers import mutated_pair, random_sequence


class TestEditDistance:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("", "", 0),
            ("ACGT", "ACGT", 0),
            ("ACGT", "", 4),
            ("", "ACGT", 4),
            ("ACGT", "AGGT", 1),
            ("ACGT", "CGT", 1),
            ("ACGT", "ACGTT", 1),
            ("AAAA", "TTTT", 4),
            ("KITTEN", "SITTING", 3),
        ],
    )
    def test_known_distances(self, a, b, expected):
        assert edit_distance(a, b) == expected
        assert dp_edit_distance(a, b) == expected

    def test_symmetry(self, rng):
        for _ in range(10):
            a = random_sequence(rng.randrange(5, 60), rng)
            b = random_sequence(rng.randrange(5, 60), rng)
            assert edit_distance(a, b) == edit_distance(b, a)

    def test_triangle_inequality(self, rng):
        for _ in range(10):
            a = random_sequence(30, rng)
            b = random_sequence(30, rng)
            c = random_sequence(30, rng)
            assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    def test_myers_matches_dp_on_random_pairs(self, rng):
        for _ in range(20):
            read, segment = mutated_pair(70, rng.randrange(0, 15), rng)
            assert myers_edit_distance(read, segment) == dp_edit_distance(read, segment)

    def test_n_character_never_matches(self):
        assert edit_distance("ACGTN", "ACGTA") == 1
        assert edit_distance("N", "N") == 0  # identical characters still match


class TestBandedEditDistance:
    def test_exact_within_band(self, rng):
        for _ in range(20):
            read, segment = mutated_pair(60, rng.randrange(0, 6), rng)
            exact = edit_distance(read, segment)
            band = 8
            banded = banded_edit_distance(read, segment, band)
            assert banded == (exact if exact <= band else band + 1)

    def test_truncates_above_band(self, rng):
        a = random_sequence(80, rng)
        b = random_sequence(80, rng)
        assert banded_edit_distance(a, b, 3) == 4

    def test_length_difference_shortcut(self):
        assert banded_edit_distance("ACGT", "ACGTACGTACGT", 3) == 4

    def test_empty_strings(self):
        assert banded_edit_distance("", "", 2) == 0
        assert banded_edit_distance("", "AC", 2) == 2
        assert banded_edit_distance("ACGT", "", 2) == 3  # truncated to band + 1

    def test_negative_band_raises(self):
        with pytest.raises(ValueError):
            banded_edit_distance("A", "A", -1)

    def test_within_threshold(self):
        assert within_threshold("ACGT", "ACGA", 1)
        assert not within_threshold("ACGT", "TGCA", 1)

