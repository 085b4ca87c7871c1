"""Tests for the data simulation substrate: genomes, reads and pair pools."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import edit_distance
from repro.api import Session, Workload
from repro.genomics import UNKNOWN_BASE
from repro.genomics.encoding import decode_from_codes, decode_pairs, encode_to_codes
from repro.simulate import (
    DEFAULT_N_PAIRS,
    GenomeProfile,
    MutationProfile,
    PAPER_DATASETS,
    PairProfile,
    apply_exact_edits,
    apply_profile,
    build_dataset,
    bwamem_like_profile,
    generate_pair_dataset,
    generate_reference,
    generate_sequence,
    minimap2_like_profile,
    mrfast_like_profile,
    simulate_reads,
)
from repro.simulate.mutations import (
    DELETION,
    INSERTION,
    SUBSTITUTION,
    draw_edits,
    edit_codes,
)
from repro.simulate.pairs import PAIR_BLOCK


class TestGenomeGeneration:
    def test_length_and_alphabet(self):
        ref = generate_reference(5_000, seed=1)
        assert len(ref) == 5_000
        assert set(ref.bases) <= set("ACGTN")

    def test_deterministic_with_seed(self):
        assert generate_reference(2_000, seed=7).bases == generate_reference(2_000, seed=7).bases
        assert generate_reference(2_000, seed=7).bases != generate_reference(2_000, seed=8).bases

    def test_n_islands_present(self):
        profile = GenomeProfile(n_island_count=3, n_island_length=20)
        ref = generate_reference(3_000, seed=2, profile=profile)
        assert ref.n_positions.size >= 20

    def test_no_n_islands_when_disabled(self):
        profile = GenomeProfile(n_island_count=0)
        ref = generate_reference(2_000, seed=3, profile=profile)
        assert ref.n_positions.size == 0

    def test_duplications_create_repeated_segments(self):
        profile = GenomeProfile(
            duplication_fraction=0.3,
            duplication_length=200,
            duplication_divergence=0.0,
            n_island_count=0,
            tandem_repeat_fraction=0.0,
        )
        ref = generate_reference(10_000, seed=4, profile=profile)
        # At least one 50-mer should occur more than once thanks to the copies.
        seen = {}
        repeated = False
        for pos in range(0, len(ref) - 50, 10):
            kmer = ref.bases[pos : pos + 50]
            if kmer in seen:
                repeated = True
                break
            seen[kmer] = pos
        assert repeated

    def test_gc_content_controllable(self):
        seq = generate_sequence(20_000, np.random.default_rng(0), gc_content=0.7)
        gc = (seq.count("G") + seq.count("C")) / len(seq)
        assert 0.65 < gc < 0.75

    def test_invalid_length_raises(self):
        with pytest.raises(ValueError):
            generate_reference(0)


class TestMutations:
    def test_apply_profile_preserves_length(self):
        rng = np.random.default_rng(0)
        seq = generate_sequence(200, rng)
        mutated, edits = apply_profile(seq, MutationProfile(0.05, 0.01, 0.01), rng)
        assert len(mutated) == len(seq)
        assert edits >= 0

    def test_zero_rates_identity(self):
        rng = np.random.default_rng(0)
        seq = generate_sequence(100, rng)
        mutated, edits = apply_profile(seq, MutationProfile(0.0, 0.0, 0.0), rng)
        assert mutated == seq
        assert edits == 0

    def test_apply_exact_edits_bounded_distance(self):
        rng = np.random.default_rng(1)
        seq = generate_sequence(100, rng)
        for edits in (0, 1, 3, 8):
            mutated = apply_exact_edits(seq, edits, rng)
            assert len(mutated) == len(seq)
            assert edit_distance(mutated, seq) <= edits + 2  # tail padding may add a little

    @pytest.mark.parametrize("seed", range(5))
    def test_apply_exact_edits_of_empty_sequence_is_empty(self, seed):
        assert apply_exact_edits("", 3, np.random.default_rng(seed)) == ""

    @pytest.mark.parametrize("n_edits", [0, 1, 7, 40])
    def test_apply_exact_edits_is_a_one_row_kernel_call(self, n_edits):
        segment = generate_sequence(90, np.random.default_rng(n_edits))
        mutated = apply_exact_edits(segment, n_edits, np.random.default_rng(3), 0.4)
        draws = draw_edits(np.random.default_rng(3), 1, n_edits, 0.4)
        edited = edit_codes(encode_to_codes(segment)[None, :], np.array([n_edits]), draws)
        assert mutated == decode_from_codes(edited[0])

    def test_profile_scaling(self):
        profile = MutationProfile(0.01, 0.001, 0.001)
        scaled = profile.scaled(10)
        assert scaled.substitution_rate == pytest.approx(0.1)
        assert scaled.insertion_rate == pytest.approx(0.01)


class TestReadSimulation:
    def test_read_count_length_and_positions(self):
        ref = generate_reference(5_000, seed=0)
        reads = simulate_reads(ref, 50, 100, seed=1)
        assert len(reads) == 50
        assert all(len(r) == 100 for r in reads)
        assert all(0 <= r.true_position <= len(ref) - 100 for r in reads)

    def test_low_error_reads_map_back(self):
        ref = generate_reference(5_000, seed=0, profile=GenomeProfile(n_island_count=0))
        reads = simulate_reads(ref, 20, 80, profile=MutationProfile(0.01, 0.0, 0.0), seed=2)
        for read in reads:
            template = ref.segment(read.true_position, 80)
            assert edit_distance(read.bases, template) <= 10

    def test_reference_shorter_than_read_raises(self):
        ref = generate_reference(50, seed=0)
        with pytest.raises(ValueError):
            simulate_reads(ref, 5, 100)


class TestPairDatasets:
    def test_generate_pair_dataset_sizes(self):
        profile = mrfast_like_profile(100, 5)
        dataset = generate_pair_dataset(200, profile, seed=0, name="t")
        assert dataset.n_pairs == 200
        assert dataset.read_length == 100
        assert all(len(r) == 100 for r in dataset.reads)
        assert all(len(s) == 100 for s in dataset.segments)

    def test_undefined_fraction_respected(self):
        profile = PairProfile(read_length=60, undefined_fraction=0.5)
        dataset = generate_pair_dataset(300, profile, seed=1)
        assert dataset.n_undefined > 50

    def test_to_pairs_and_subset(self):
        dataset = build_dataset("Set 1", n_pairs=50, seed=0)
        pairs = dataset.to_pairs()
        assert len(pairs) == 50
        sub = dataset.subset(10)
        assert sub.n_pairs == 10
        assert sub.reads[0] == dataset.reads[0]

    def test_low_edit_profile_has_more_similar_pairs_than_high(self):
        low = build_dataset("Set 1", n_pairs=400, seed=3)
        high = build_dataset("Set 4", n_pairs=400, seed=3)
        threshold = 5
        low_similar = sum(
            1 for r, s in zip(low.reads, low.segments)
            if UNKNOWN_BASE not in r and UNKNOWN_BASE not in s and edit_distance(r, s) <= threshold
        )
        high_similar = sum(
            1 for r, s in zip(high.reads, high.segments)
            if UNKNOWN_BASE not in r and UNKNOWN_BASE not in s and edit_distance(r, s) <= threshold
        )
        assert low_similar > high_similar

    def test_bwamem_profile_mostly_similar(self):
        dataset = generate_pair_dataset(200, bwamem_like_profile(100), seed=5)
        similar = sum(
            1 for r, s in zip(dataset.reads, dataset.segments)
            if UNKNOWN_BASE not in r and UNKNOWN_BASE not in s and edit_distance(r, s) <= 10
        )
        assert similar > 100

    def test_minimap2_profile_mostly_divergent(self):
        dataset = generate_pair_dataset(200, minimap2_like_profile(100), seed=6)
        divergent = sum(
            1 for r, s in zip(dataset.reads, dataset.segments)
            if edit_distance(r, s) > 10
        )
        assert divergent > 100

    def test_registry_contains_paper_sets(self):
        for name in ("Set 1", "Set 3", "Set 4", "Set 9", "Set 12", "Minimap2", "BWA-MEM"):
            assert name in PAPER_DATASETS

    def test_build_dataset_unknown_name(self):
        with pytest.raises(KeyError):
            build_dataset("Set 99")

    def test_build_dataset_deterministic(self):
        a = build_dataset("Set 3", n_pairs=30, seed=9)
        b = build_dataset("Set 3", n_pairs=30, seed=9)
        assert a.reads == b.reads and a.segments == b.segments

    def test_dataset_length_mismatch_raises(self):
        from repro.simulate.pairs import PairDataset

        with pytest.raises(ValueError):
            PairDataset(name="bad", reads=["ACGT"], segments=[], read_length=4)


# --------------------------------------------------------------------------- #
# The block edit kernel against a scalar replay of the same draws
# --------------------------------------------------------------------------- #
def replay(segment: list[int], n_edits: int, draws, row: int) -> tuple[list[int], int, int]:
    """Apply one row's first ``n_edits`` drawn edits one at a time.

    Returns the edited codes trimmed or padded (with the row's filler) back
    to the segment's length, and the insertion and deletion counts.
    """
    seq = list(segment)
    insertions = deletions = 0
    for j in range(n_edits):
        pos = min(int(draws.spots[row, j] * len(seq)), len(seq) - 1)
        kind = draws.kinds[row, j]
        pick = int(draws.picks[row, j])
        if kind == DELETION and len(seq) == 1:
            kind = INSERTION
        if kind == SUBSTITUTION:
            seq[pos] = (seq[pos] + 1 + pick % 3) % 4
        elif kind == DELETION:
            del seq[pos]
            deletions += 1
        else:
            seq.insert(pos, pick % 4)
            insertions += 1
    filler = draws.filler[row].tolist()
    return (seq + filler)[: len(segment)], insertions, deletions


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    length=st.integers(1, 300),
    n_edits=st.lists(st.integers(0, 60), min_size=1, max_size=6),
    indel_fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_edit_kernel_matches_scalar_replay(length, n_edits, indel_fraction, seed):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 4, size=(len(n_edits), length), dtype=np.uint8)
    draws = draw_edits(rng, len(n_edits), max(n_edits), indel_fraction)
    edited = edit_codes(codes, np.array(n_edits), draws)
    assert edited.shape == codes.shape
    for row, k in enumerate(n_edits):
        expected, insertions, deletions = replay(codes[row].tolist(), k, draws, row)
        assert edited[row].tolist() == expected
        distance = edit_distance(decode_from_codes(edited[row]), decode_from_codes(codes[row]))
        assert distance <= k + abs(insertions - deletions)


def test_edit_kernel_leaves_rows_without_edits_unchanged():
    rng = np.random.default_rng(0)
    codes = rng.integers(0, 4, size=(4, 30), dtype=np.uint8)
    draws = draw_edits(rng, 4, 9, 0.5)
    edited = edit_codes(codes, np.array([-1, 0, 9, 0]), draws)
    assert np.array_equal(edited[[0, 1, 3]], codes[[0, 1, 3]])


# --------------------------------------------------------------------------- #
# The block generator: prefix stability and the pair contract
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def pool_4000():
    return build_dataset("Set 1", n_pairs=4_000, seed=5)


@pytest.mark.parametrize("n", [0, 1, PAIR_BLOCK - 1, PAIR_BLOCK, PAIR_BLOCK + 1, 3_079])
def test_smaller_pool_is_a_row_prefix(pool_4000, n):
    small = build_dataset("Set 1", n_pairs=n, seed=5)
    assert small.reads == pool_4000.reads[:n]
    assert small.segments == pool_4000.segments[:n]
    assert small.planned_edits == pool_4000.planned_edits[:n]


def test_blocks_draw_distinct_pairs(pool_4000):
    first, second = pool_4000.segments[:PAIR_BLOCK], pool_4000.segments[PAIR_BLOCK:]
    assert not set(first) & set(second)


def test_planner_probe_is_independent_of_pool_size():
    def workload(n_pairs: int) -> Workload:
        return Workload.from_dict({
            "input": {"kind": "dataset", "dataset": "Set 1", "n_pairs": n_pairs, "seed": 4},
            "filter": {"filter": "gatekeeper-gpu", "error_threshold": 5},
        })

    session = Session()
    small = session.probe_pairs(workload(1_000), 256)
    large = session.probe_pairs(workload(30_000), 256)
    assert len(small) == 256
    assert list(decode_pairs([small])) == list(decode_pairs([large]))


def test_unedited_defined_pairs_match_their_segment():
    profile = PairProfile(read_length=80, true_fraction=1, repeat_fraction=0,
                          random_fraction=0, true_mean_edits=0.7, undefined_fraction=0.2)
    dataset = generate_pair_dataset(2_000, profile, seed=8)
    unedited = [
        (read, segment)
        for read, segment, k in zip(dataset.reads, dataset.segments, dataset.planned_edits)
        if k == 0 and UNKNOWN_BASE not in read + segment
    ]
    assert len(unedited) > 500
    assert all(read == segment for read, segment in unedited)


@pytest.mark.parametrize(
    "weights, planned",
    [
        ((1, 0, 0), lambda k: k >= 0),
        ((0, 1, 0), lambda k: 3 <= k <= 20),
        ((0, 0, 1), lambda k: k == -1),
        ((0.3, 0.5, 0.2), lambda k: k >= -1),
    ],
)
def test_planned_edits_are_minus_one_exactly_for_spurious_pairs(weights, planned):
    true, repeat, spurious = weights
    profile = PairProfile(read_length=50, true_fraction=true, repeat_fraction=repeat,
                          random_fraction=spurious)
    dataset = generate_pair_dataset(1_500, profile, seed=2)
    assert all(planned(k) for k in dataset.planned_edits)
    share = dataset.planned_edits.count(-1) / dataset.n_pairs
    assert share == pytest.approx(spurious, abs=0.05)


def test_undefined_pair_holds_one_n_on_one_side():
    profile = PairProfile(read_length=40, undefined_fraction=0.3)
    dataset = generate_pair_dataset(3_000, profile, seed=6)
    counts = [(r.count(UNKNOWN_BASE), s.count(UNKNOWN_BASE))
              for r, s in zip(dataset.reads, dataset.segments)]
    assert all(on_read + on_segment <= 1 for on_read, on_segment in counts)
    assert dataset.n_undefined == sum(on_read + on_segment for on_read, on_segment in counts)
    assert dataset.n_undefined / dataset.n_pairs == pytest.approx(0.3, abs=0.03)
    assert sum(on_read for on_read, _ in counts) > 300
    assert sum(on_segment for _, on_segment in counts) > 300


@pytest.mark.parametrize(
    "field, value",
    [
        ("read_length", 0),
        ("true_fraction", -0.1),
        ("repeat_fraction", -1.0),
        ("random_fraction", float("nan")),
        ("undefined_fraction", 1.5),
        ("indel_fraction", -1.0),
        ("true_mean_edits", -0.5),
        ("repeat_min_edits", -1),
        ("repeat_max_edits", 2),
    ],
)
def test_pair_profile_rejects_a_bad_field_by_name(field, value):
    with pytest.raises(ValueError, match=rf"PairProfile\.{field}:"):
        PairProfile(**{field: value})


def test_pair_profile_rejects_all_zero_weights():
    with pytest.raises(ValueError, match="positive sum"):
        PairProfile(true_fraction=0, repeat_fraction=0, random_fraction=0)
