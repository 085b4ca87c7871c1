"""Tests for the mrFAST-like mapper substrate (index, seeding, mapping, SAM)."""

import numpy as np
import pytest

from repro.engine import FilterEngine
from repro.filters import SneakySnakeFilter
from repro.genomics import ReferenceGenome, Read
from repro.mapper import KmerIndex, MappingStats, MrFastMapper, SamRecord, Seeder, write_sam
from repro.simulate import GenomeProfile, MutationProfile, generate_reference, simulate_reads


@pytest.fixture(scope="module")
def reference():
    return generate_reference(
        20_000, seed=42, profile=GenomeProfile(duplication_fraction=0.1, n_island_count=1)
    )


@pytest.fixture(scope="module")
def reads(reference):
    return simulate_reads(
        reference, 60, 100, profile=MutationProfile(0.01, 0.001, 0.001), seed=7
    )


class TestKmerIndex:
    def test_lookup_finds_planted_kmer(self):
        ref = ReferenceGenome("r", "ACGTACGTTTGGCCAATT")
        index = KmerIndex(ref, k=6)
        hits = index.lookup("ACGTAC")
        assert 0 in hits.tolist()
        assert len(index) > 0
        assert "ACGTAC" in index

    def test_missing_kmer_empty(self):
        index = KmerIndex(ReferenceGenome("r", "AAAAAAAAAA"), k=4)
        assert index.lookup("CCCC").size == 0

    def test_kmers_with_n_not_indexed(self):
        index = KmerIndex(ReferenceGenome("r", "ACGTNACGT"), k=4)
        assert "GTNA" not in index

    def test_wrong_query_length_raises(self):
        index = KmerIndex(ReferenceGenome("r", "ACGTACGT"), k=4)
        with pytest.raises(ValueError):
            index.lookup("ACG")

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KmerIndex(ReferenceGenome("r", "ACGT"), k=0)
        with pytest.raises(ValueError):
            KmerIndex(ReferenceGenome("r", "ACGT"), k=10)

    def test_occurrence_counts_reflect_repeats(self):
        index = KmerIndex(ReferenceGenome("r", "ACGTACGTACGT"), k=4)
        assert index.occurrence_counts().max() >= 3  # ACGT occurs three times


class TestSeeder:
    def test_seeds_cover_read(self, reference):
        index = KmerIndex(reference, k=12)
        seeder = Seeder(index, error_threshold=4)
        read = reference.segment(500, 100)
        seeds = seeder.seeds_of(read)
        assert len(seeds) == 5  # e + 1 seeds
        assert all(len(kmer) == 12 for _, kmer in seeds)
        assert seeds[0][0] == 0 and seeds[-1][0] == 88

    def test_candidates_include_true_location(self, reference):
        index = KmerIndex(reference, k=12)
        seeder = Seeder(index, error_threshold=4)
        for position in (1000, 5000, 12_345):
            read = reference.segment(position, 100)
            if "N" in read:
                continue
            assert position in seeder.candidates(read).tolist()

    def test_max_candidates_cap(self, reference):
        index = KmerIndex(reference, k=8)
        seeder = Seeder(index, error_threshold=4, max_candidates=5)
        read = reference.segment(2000, 100)
        assert len(seeder.candidates(read)) <= 5

    def test_negative_threshold_raises(self, reference):
        index = KmerIndex(reference, k=12)
        with pytest.raises(ValueError):
            Seeder(index, error_threshold=-1)


class TestMrFastMapper:
    def test_maps_error_free_reads_to_true_positions(self, reference):
        clean_reads = simulate_reads(
            reference, 25, 100, profile=MutationProfile(0.0, 0.0, 0.0), seed=3
        )
        mapper = MrFastMapper(reference, error_threshold=2)
        result = mapper.map_reads(clean_reads)
        positions = {r.query_name: [] for r in result.records}
        for record in result.records:
            positions[record.query_name].append(record.position)
        for read in clean_reads:
            if "N" in read.bases:
                continue
            assert read.true_position in positions.get(read.name, []), read.name

    def test_filter_preserves_mappings(self, reference, reads):
        no_filter = MrFastMapper(reference, error_threshold=5, k=10).map_reads(reads)
        gatekeeper = FilterEngine("gatekeeper-gpu", read_length=100, error_threshold=5)
        filtered = MrFastMapper(
            reference, error_threshold=5, k=10, prefilter=gatekeeper
        ).map_reads(reads)
        assert filtered.stats.mappings == no_filter.stats.mappings
        assert filtered.stats.mapped_reads == no_filter.stats.mapped_reads
        assert filtered.stats.candidate_pairs == no_filter.stats.candidate_pairs
        assert filtered.stats.verification_pairs <= no_filter.stats.verification_pairs
        assert filtered.stats.rejected_pairs > 0
        assert filtered.times.verification_s <= no_filter.times.verification_s

    def test_scalar_prefilter_supported(self, reference, reads):
        mapper = MrFastMapper(
            reference, error_threshold=5, k=10, prefilter=SneakySnakeFilter(5)
        )
        result = mapper.map_reads(reads[:20])
        assert result.filter_name == "SneakySnake"
        assert result.stats.verification_pairs <= result.stats.candidate_pairs

    @pytest.mark.parametrize(
        "key, label", [("gatekeeper-gpu", "GateKeeper-GPU"), ("gatekeeper", "GateKeeper")]
    )
    def test_engine_label_follows_edge_policy(self, reference, reads, key, label):
        # The legacy engine runs the original GateKeeper and must say so.
        engine = FilterEngine(key, read_length=100, error_threshold=5)
        result = MrFastMapper(
            reference, error_threshold=5, k=10, prefilter=engine
        ).map_reads(reads[:5])
        assert result.filter_name == engine.name == label

    def test_batching_does_not_change_results(self, reference, reads):
        big = MrFastMapper(reference, error_threshold=5, k=10).map_reads(reads[:30])
        small = MrFastMapper(
            reference, error_threshold=5, k=10, max_reads_per_batch=7
        ).map_reads(reads[:30])
        assert big.stats.mappings == small.stats.mappings
        assert big.stats.candidate_pairs == small.stats.candidate_pairs

    def test_accepts_plain_strings(self, reference):
        mapper = MrFastMapper(reference, error_threshold=2)
        result = mapper.map_reads([reference.segment(100, 100)])
        assert result.stats.n_reads == 1
        assert result.stats.mappings >= 1

    def test_summary_and_times(self, reference, reads):
        result = MrFastMapper(reference, error_threshold=5, k=10).map_reads(reads[:10])
        summary = result.summary()
        assert summary["filter"] == "NoFilter"
        assert summary["reads"] == 10
        assert result.times.overall_s > 0
        assert result.times.wall_clock_s > 0


class TestStatsAndSam:
    def test_mapping_stats_merge_and_reduction(self):
        a = MappingStats(n_reads=10, candidate_pairs=100, verification_pairs=40, rejected_pairs=60)
        b = MappingStats(n_reads=5, candidate_pairs=50, verification_pairs=50, rejected_pairs=0)
        merged = a.merge(b)
        assert merged.n_reads == 15
        assert merged.candidate_pairs == 150
        assert merged.reduction == pytest.approx(60 / 150)
        assert MappingStats().reduction == 0.0

    def test_sam_record_line_and_writer(self, tmp_path):
        record = SamRecord(
            query_name="r1",
            reference_name="chr1",
            position=41,
            mapping_quality=60,
            cigar="100M",
            sequence="A" * 100,
            edit_distance=2,
        )
        line = record.to_line()
        fields = line.split("\t")
        assert fields[0] == "r1"
        assert fields[3] == "42"  # 1-based
        assert fields[-1] == "NM:i:2"
        path = tmp_path / "out.sam"
        count = write_sam(path, [record], "chr1", 1000)
        assert count == 1
        content = path.read_text().splitlines()
        assert content[0].startswith("@HD")
        assert content[1] == "@SQ\tSN:chr1\tLN:1000"
        assert content[-1] == line
