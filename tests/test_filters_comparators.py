"""Tests for the comparator filters: MAGNET, Shouji and SneakySnake."""

import numpy as np
import pytest

from repro.align import edit_distance
from repro.engine import FilterEngine
from repro.filters import (
    GateKeeperGPUFilter,
    MagnetFilter,
    ShoujiFilter,
    SneakySnakeFilter,
    neighborhood_map,
)
from repro.genomics import encode_to_codes
from helpers import mutated_pair, random_sequence


ALL_COMPARATORS = [MagnetFilter, ShoujiFilter, SneakySnakeFilter]


class TestNeighborhoodMap:
    def test_shape(self):
        nmap = neighborhood_map(encode_to_codes("ACGTAC"), encode_to_codes("ACGTAC"), 2)
        assert nmap.shape == (5, 6)

    def test_main_diagonal_zero_for_exact_match(self):
        nmap = neighborhood_map(encode_to_codes("ACGTAC"), encode_to_codes("ACGTAC"), 2)
        assert nmap[2].sum() == 0  # row index e corresponds to offset 0

    def test_out_of_range_cells_are_obstacles(self):
        nmap = neighborhood_map(encode_to_codes("ACGT"), encode_to_codes("ACGT"), 1)
        # offset +1 row: the last column compares beyond the segment -> 1.
        assert nmap[2, -1] == 1
        # offset -1 row: the first column compares before the segment -> 1.
        assert nmap[0, 0] == 1


class TestExactAndSimplePairs:
    @pytest.mark.parametrize("filter_cls", ALL_COMPARATORS)
    def test_exact_match_estimate_zero(self, filter_cls):
        f = filter_cls(3)
        seq = "ACGTACGTACGTACGTACGTACGT"
        assert f.estimate_edits(seq, seq) == 0
        assert f.filter_pair(seq, seq).accepted

    @pytest.mark.parametrize("filter_cls", ALL_COMPARATORS)
    def test_single_substitution_estimate_small(self, filter_cls):
        f = filter_cls(3)
        segment = "ACGTACGTACGTACGTACGTACGT"
        read = segment[:12] + "A" + segment[13:]
        read = read if read != segment else segment[:12] + "C" + segment[13:]
        assert f.estimate_edits(read, segment) <= 2

    @pytest.mark.parametrize("filter_cls", ALL_COMPARATORS)
    def test_random_pair_rejected(self, filter_cls, rng):
        f = filter_cls(2)
        assert not f.filter_pair(random_sequence(100, rng), random_sequence(100, rng)).accepted

    @pytest.mark.parametrize("filter_cls", ALL_COMPARATORS)
    def test_undefined_pair_passes(self, filter_cls):
        f = filter_cls(0)
        assert f.filter_pair("ACGTN" * 4, "TTTTT" * 4).accepted


class TestSneakySnakeAccuracy:
    def test_no_false_rejects_vs_edit_distance(self, rng):
        # SneakySnake's estimate lower-bounds the edit distance by construction.
        for _ in range(60):
            edits = rng.randrange(0, 10)
            read, segment = mutated_pair(100, edits, rng)
            distance = edit_distance(read, segment)
            f = SneakySnakeFilter(max(distance, 1))
            assert f.filter_pair(read, segment).accepted

    def test_estimate_lower_bounds_edit_distance(self, rng):
        for _ in range(40):
            read, segment = mutated_pair(80, rng.randrange(0, 12), rng)
            distance = edit_distance(read, segment)
            estimate = SneakySnakeFilter(len(read)).estimate_edits(read, segment)
            assert estimate <= distance

    def test_fewer_false_accepts_than_gatekeeper_gpu(self, rng):
        threshold = 5
        snake = SneakySnakeFilter(threshold)
        gkg = GateKeeperGPUFilter(threshold)
        snake_fa = gkg_fa = 0
        for _ in range(80):
            read, segment = mutated_pair(100, rng.randrange(6, 25), rng)
            if edit_distance(read, segment) <= threshold:
                continue
            if snake.filter_pair(read, segment).accepted:
                snake_fa += 1
            if gkg.filter_pair(read, segment).accepted:
                gkg_fa += 1
        assert snake_fa <= gkg_fa


class TestMagnet:
    def test_estimate_counts_uncovered_positions(self):
        segment = "ACGT" * 10
        read = segment[:20] + "T" + segment[21:]
        read = read if read != segment else segment[:20] + "A" + segment[21:]
        f = MagnetFilter(3)
        assert 1 <= f.estimate_edits(read, segment) <= 3

    def test_zero_threshold_single_extraction(self):
        f = MagnetFilter(0)
        segment = "ACGTACGTACGTACGT"
        read = segment[:8] + ("A" if segment[8] != "A" else "C") + segment[9:]
        # One mismatch cannot be covered by a single zero segment.
        assert f.estimate_edits(read, segment) >= 1
        assert not f.filter_pair(read, segment).accepted

    def test_magnet_more_accurate_than_gkg_on_divergent_pairs(self, rng):
        threshold = 8
        magnet = MagnetFilter(threshold)
        gkg = GateKeeperGPUFilter(threshold)
        magnet_fa = gkg_fa = 0
        for _ in range(50):
            read, segment = mutated_pair(100, rng.randrange(10, 30), rng)
            if edit_distance(read, segment) <= threshold:
                continue
            magnet_fa += int(magnet.filter_pair(read, segment).accepted)
            gkg_fa += int(gkg.filter_pair(read, segment).accepted)
        assert magnet_fa <= gkg_fa


class TestShouji:
    def test_window_parameter(self):
        segment = "ACGTACGTACGTACGT"
        f = ShoujiFilter(2, window=8)
        assert f.estimate_edits(segment, segment) == 0

    @pytest.mark.parametrize("window", [0, -1])
    def test_rejects_window_below_one(self, window):
        with pytest.raises(ValueError, match="window"):
            ShoujiFilter(2, window=window)
        with pytest.raises(ValueError, match="window"):
            FilterEngine("shouji", 10, 2, window=window)

    def test_shouji_estimate_reasonable_for_two_substitutions(self):
        segment = "ACGGTTACGTACGTACCGTTAAGG"
        read = list(segment)
        read[5] = "C" if segment[5] != "C" else "A"
        read[15] = "C" if segment[15] != "C" else "A"
        read = "".join(read)
        estimate = ShoujiFilter(4).estimate_edits(read, segment)
        assert 1 <= estimate <= 4
