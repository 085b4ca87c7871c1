"""Property / equivalence tests for the one chunk runner.

The core invariant: for any input, any registered filter and any chunk
size, a streamed run (``execution.mode = "streaming"``) produces
accept/reject vectors, aggregate counts and modelled-time totals identical
to the single-chunk memory-mode run — including the single-pair and
empty-input edge cases, any device count, and pairs sourced from files
instead of memory.  Both entry points of the runner are covered: in-memory
pairs are chunked and encoded as they stream in, and simulated datasets run
as row-slice views of their cached encoded batch.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro.api import (
    ExecutionSpec,
    FilterSpec,
    InputSpec,
    OutputSpec,
    Session,
    Workload,
)
from repro.align import ground_truth_labels
from repro.engine import available_filters
from repro.genomics import decode_pairs
from repro.gpusim.device import GTX_1080_TI
from repro.gpusim.multi_gpu import MultiGpuDispatcher, split_evenly
from repro.runtime import iter_reads, pairs_from_tsv
from repro.simulate.pairs import PairProfile, generate_pair_dataset
from helpers import random_sequence

ERROR_THRESHOLD = 4
READ_LENGTH = 40
N_PAIRS = 61


@pytest.fixture(scope="module")
def dataset():
    """A randomized mixed pool (genuine / repeat / spurious / undefined pairs)."""
    profile = PairProfile(read_length=READ_LENGTH, undefined_fraction=0.05)
    return generate_pair_dataset(N_PAIRS, profile, seed=17, name="prop")


@pytest.fixture(scope="module")
def session():
    with Session() as shared:
        yield shared


def workload_for(
    source,
    filters=("shouji",),
    error_threshold=ERROR_THRESHOLD,
    mode="streaming",
    chunk_size=16,
    n_devices=1,
    verify=True,
    **output,
):
    """A filtering workload over a dataset's pairs (or an explicit input spec)."""
    if not isinstance(source, InputSpec):
        source = InputSpec(
            kind="pairs", pairs=list(zip(source.reads, source.segments)), name=source.name
        )
    return Workload(
        input=source,
        filter=FilterSpec(filters=tuple(filters), error_threshold=error_threshold),
        execution=ExecutionSpec(
            mode=mode, chunk_size=chunk_size, n_devices=n_devices, verify=verify
        ),
        output=OutputSpec(**{"collect_decisions": True, **output}),
    )


def assert_same_run(streamed, memory):
    assert json.dumps(streamed.summary, sort_keys=True) == json.dumps(
        memory.summary, sort_keys=True
    )
    assert streamed.stages == memory.stages
    for vector in ("accepted", "estimated_edits", "undefined"):
        assert np.array_equal(getattr(streamed.raw, vector), getattr(memory.raw, vector))


class TestChunkSizeEquivalence:
    @pytest.mark.parametrize("filter_name", available_filters())
    @pytest.mark.parametrize("chunk_size", [1, 7, N_PAIRS, N_PAIRS + 13])
    def test_every_filter_every_chunk_size(self, session, dataset, filter_name, chunk_size):
        memory = session.run(workload_for(dataset, [filter_name], mode="memory"))
        streamed = session.run(
            workload_for(dataset, [filter_name], chunk_size=chunk_size)
        )
        assert_same_run(streamed, memory)
        assert memory.streaming is None and streamed.streaming is not None

    @pytest.mark.parametrize("chunk_size", [1, 7, N_PAIRS, N_PAIRS + 13])
    def test_cascade_every_chunk_size(self, session, dataset, chunk_size):
        names = ["gatekeeper-gpu", "magnet"]
        memory = session.run(workload_for(dataset, names, mode="memory"))
        streamed = session.run(workload_for(dataset, names, chunk_size=chunk_size))
        assert_same_run(streamed, memory)
        assert [s["filter"] for s in streamed.stages] == ["GateKeeper-GPU", "MAGNET"]

    @pytest.mark.parametrize("seed", [0, 5])
    def test_randomized_datasets(self, session, seed):
        local = generate_pair_dataset(
            23, PairProfile(read_length=28), seed=seed, name=f"rand{seed}"
        )
        memory = session.run(workload_for(local, error_threshold=3, mode="memory"))
        streamed = session.run(workload_for(local, error_threshold=3, chunk_size=5))
        assert_same_run(streamed, memory)

    @pytest.mark.parametrize("chunk_size", [64, 1000])
    def test_cached_batch_views_equal_encoded_chunks(self, session, chunk_size):
        """A dataset's row-slice views and its pairs encoded per chunk agree."""
        spec = InputSpec(kind="dataset", dataset="Set 4", n_pairs=300, seed=4)
        cascade = ["gatekeeper-gpu", "sneakysnake"]
        views = session.run(workload_for(spec, cascade, chunk_size=chunk_size))
        encoded = session.run(
            workload_for(session.dataset_for(Workload(input=spec)), cascade,
                         chunk_size=chunk_size)
        )
        assert_same_run(views, encoded)
        assert views.streaming == encoded.streaming
        assert views.chunks == encoded.chunks


class TestEdgeCases:
    def test_empty_input_yields_zero_result(self, session, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        result = session.run(
            workload_for(InputSpec(kind="tsv", path=str(empty)), error_threshold=3)
        )
        assert result.filter == "Shouji"
        assert result.kernel_tier is None  # no engine was ever built
        assert result.summary["n_pairs"] == 0
        assert result.summary["n_accepted"] == 0
        assert result.summary["kernel_time_s"] == 0.0
        assert result.summary["filter_time_s"] == 0.0
        assert result.streaming["n_chunks"] == 0
        assert result.streaming["n_devices"] == 1
        assert result.streaming["serial_time_s"] == 0.0
        assert result.streaming["overlapped_time_s"] == 0.0
        assert result.raw.accepted is not None and result.raw.accepted.size == 0

    def test_empty_input_is_strict_json_despite_infinite_speedups(self, session, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        result = session.run(workload_for(InputSpec(kind="tsv", path=str(empty))))
        assert result.summary["verification_speedup"] == float("inf")
        payload = json.loads(result.to_json())
        # allow_nan=False raises on inf/nan, so this proves RFC-8259 output.
        json.dumps(payload, allow_nan=False)
        assert payload["summary"]["verification_speedup"] is None

    @pytest.mark.parametrize("chunk_size", [1, 4])
    def test_single_pair(self, session, chunk_size):
        single = generate_pair_dataset(
            1, PairProfile(read_length=24), seed=2, name="single"
        )
        kwargs = dict(filters=["gatekeeper-gpu"], error_threshold=2)
        memory = session.run(workload_for(single, mode="memory", **kwargs))
        streamed = session.run(workload_for(single, chunk_size=chunk_size, **kwargs))
        assert_same_run(streamed, memory)
        assert streamed.streaming["n_chunks"] == 1

    def test_chunk_size_must_be_positive(self):
        with pytest.raises(ValueError, match="execution.chunk_size"):
            ExecutionSpec(chunk_size=0)

    def test_verify_false_skips_verification_but_keeps_model_times(self, session, dataset):
        kwargs = dict(filters=["sneakysnake"], verify=False)
        memory = session.run(workload_for(dataset, mode="memory", **kwargs))
        streamed = session.run(workload_for(dataset, **kwargs))
        assert streamed.summary["verified_accepts"] == 0 == memory.summary["verified_accepts"]
        assert_same_run(streamed, memory)
        assert streamed.summary["verification_time_s"] > 0.0


class TestVerifiedAccepts:
    """Verified accepts equal the exact-DP accepts: the filter never falsely
    rejects, and batched verification agrees with Edlib-style ground truth
    (the check bench's filter-verify workload makes on every run)."""

    @pytest.mark.parametrize("dataset_name", ["Set 1", "Set 3", "Set 4"])
    @pytest.mark.parametrize("error_threshold", [0, 2, 5, 10])
    def test_verified_accepts_equal_exact_dp_accepts(
        self, session, dataset_name, error_threshold
    ):
        spec = {
            "input": {"kind": "dataset", "dataset": dataset_name, "n_pairs": 300, "seed": 3},
            "filter": {"filters": ["gatekeeper-gpu"], "error_threshold": error_threshold},
        }
        memory = Workload.from_dict({**spec, "execution": {"mode": "memory"}})
        dataset = session.dataset_for(memory)
        truth = ground_truth_labels(
            list(zip(dataset.reads, dataset.segments)),
            error_threshold,
            undefined_accepted=False,
        ).sum()
        streamed = Workload.from_dict(
            {**spec, "execution": {"mode": "streaming", "chunk_size": 7}}
        )
        for workload in (memory, streamed):
            summary = session.run(workload).summary
            assert summary["verified_accepts"] == truth
            assert summary["verified_accepts"] + summary["verified_rejects"] == (
                summary["n_accepted"]
            )


class TestMultiGpuInvariance:
    @pytest.mark.parametrize("n_devices", [1, 2, 3])
    def test_decisions_independent_of_devices(self, session, dataset, n_devices):
        kwargs = dict(filters=["gatekeeper-gpu"])
        baseline = session.run(workload_for(dataset, n_devices=1, **kwargs))
        result = session.run(workload_for(dataset, n_devices=n_devices, **kwargs))
        assert np.array_equal(result.raw.accepted, baseline.raw.accepted)
        assert np.array_equal(result.raw.estimated_edits, baseline.raw.estimated_edits)
        assert result.summary["n_accepted"] == baseline.summary["n_accepted"]
        assert result.summary["verified_accepts"] == baseline.summary["verified_accepts"]
        assert result.streaming["n_devices"] == n_devices

    @pytest.mark.parametrize("n_devices", [1, 2, 3])
    def test_equivalence_holds_per_device_count(self, session, dataset, n_devices):
        kwargs = dict(filters=["shd"], n_devices=n_devices)
        memory = session.run(workload_for(dataset, mode="memory", **kwargs))
        streamed = session.run(workload_for(dataset, **kwargs))
        assert_same_run(streamed, memory)

    @pytest.mark.parametrize("n_devices", [1, 2, 3, 5])
    def test_overlapped_wall_time_at_most_serial(self, session, dataset, n_devices):
        streaming = session.run(
            workload_for(dataset, ["gatekeeper-gpu"], n_devices=n_devices)
        ).streaming
        assert streaming["overlapped_time_s"] <= streaming["serial_time_s"] + 1e-18
        if n_devices > 1:
            assert streaming["overlapped_time_s"] < streaming["serial_time_s"]
            assert streaming["overlap_speedup"] > 1.0

    def test_more_devices_than_pairs_in_a_chunk(self, session):
        tiny = generate_pair_dataset(2, PairProfile(read_length=24), seed=9, name="tiny")
        kwargs = dict(filters=["gatekeeper-gpu"], error_threshold=2, n_devices=5)
        streamed = session.run(workload_for(tiny, chunk_size=8, **kwargs))
        assert streamed.summary["n_pairs"] == 2
        assert_same_run(streamed, session.run(workload_for(tiny, mode="memory", **kwargs)))

    def test_chunk_modelled_kernel_is_slowest_device_not_sum(self, session, dataset):
        """Per-chunk kernel time follows the multi-GPU convention (max)."""
        workload = workload_for(dataset, ["gatekeeper-gpu"], n_devices=2)
        result = session.run(workload)
        engine = session.engine_for(workload, READ_LENGTH)
        for chunk in result.chunks:
            expected = max(
                engine.timing_model.filter_timing(
                    s.stop - s.start,
                    READ_LENGTH,
                    ERROR_THRESHOLD,
                    encode_on_device=True,
                    n_devices=1,
                ).kernel_s
                for s in split_evenly(chunk["n_pairs"], 2)
            )
            assert chunk["modelled_kernel_s"] == pytest.approx(expected)

        # A cascade: each device's kernel time sums its share of every stage
        # the chunk reached; the chunk reports the slowest device.
        workload = workload_for(dataset, ["gatekeeper-gpu", "sneakysnake"], n_devices=2)
        result = session.run(workload)
        cascade = session.engine_for(workload, READ_LENGTH)
        encoded, start = dataset.encoded(), 0
        for chunk in result.chunks:
            stop = start + chunk["n_pairs"]
            accounts = cascade.filter_encoded(encoded[start:stop]).stage_accounts
            start = stop
            per_stage = [
                [
                    stage.timing_model.filter_timing(
                        s.stop - s.start,
                        READ_LENGTH,
                        ERROR_THRESHOLD,
                        encode_on_device=True,
                        n_devices=1,
                    ).kernel_s
                    for s in split_evenly(account.n_input, 2)
                ]
                for stage, account in zip(cascade.stages, accounts)
            ]
            expected = max(sum(device) for device in zip(*per_stage))
            assert chunk["modelled_kernel_s"] == pytest.approx(expected)

    @pytest.mark.parametrize(
        "filters",
        [["gatekeeper-gpu"], ["gatekeeper-gpu", "sneakysnake"]],
        ids=["single", "cascade"],
    )
    @pytest.mark.parametrize("n_devices", [2, 3])
    def test_serial_time_does_not_depend_on_device_count(
        self, session, dataset, filters, n_devices
    ):
        """Splitting the work across devices moves it; serial time pays all of it."""
        one = session.run(workload_for(dataset, filters, n_devices=1)).streaming
        many = session.run(workload_for(dataset, filters, n_devices=n_devices)).streaming
        assert many["serial_time_s"] == pytest.approx(one["serial_time_s"])

    def test_empty_input_reports_configured_filter_and_devices(self, session, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        result = session.run(
            workload_for(
                InputSpec(kind="tsv", path=str(empty)),
                ["gatekeeper-gpu", "sneakysnake"],
                error_threshold=2,
                n_devices=3,
            )
        )
        assert result.filter == "GateKeeper-GPU -> SneakySnake"
        assert result.streaming["n_devices"] == 3
        assert result.stages == []

    def test_max_chunk_rows_caps_rows_but_counts_all_chunks(self, session, dataset):
        result = session.run(workload_for(dataset, chunk_size=8, max_chunk_rows=2))
        assert len(result.chunks) == 2
        assert result.streaming["n_chunks"] == -(-N_PAIRS // 8)
        assert result.streaming["n_chunks"] > len(result.chunks)

    def test_bounded_output_keeps_totals(self, session, dataset):
        default = session.run(workload_for(dataset))
        bounded = session.run(
            workload_for(dataset, collect_decisions=False, include_chunks=False)
        )
        assert bounded.chunks is None and bounded.raw.chunks == []
        assert bounded.raw.accepted is None
        assert bounded.streaming == default.streaming
        assert bounded.summary == default.summary

    def test_split_evenly_with_fewer_items_than_devices(self):
        slices = split_evenly(2, 5)
        assert len(slices) == 5
        sizes = [s.stop - s.start for s in slices]
        assert sum(sizes) == 2
        assert all(size >= 0 for size in sizes)
        # Contiguous, ordered cover of range(2).
        covered = [i for s in slices for i in range(s.start, s.stop)]
        assert covered == [0, 1]

    def test_share_timings_of_empty_shares_are_zero(self):
        timings = MultiGpuDispatcher([GTX_1080_TI] * 4).share_timings(2, 24, 2)
        assert len(timings) == 4
        assert sum(1 for t in timings if t.kernel_s > 0) == 2
        assert all(t.filter_s == 0.0 for t in timings if t.kernel_s == 0.0)


class TestFileSources:
    def test_pairs_tsv_roundtrip(self, dataset, tmp_path):
        path = tmp_path / "pairs.tsv"
        with open(path, "w") as fh:
            fh.write("# read\tsegment\n")
            for read, segment in zip(dataset.reads, dataset.segments):
                fh.write(f"{read}\t{segment}\n")
        from_file = list(pairs_from_tsv(path))
        assert from_file == list(zip(dataset.reads, dataset.segments))

    def test_pairs_tsv_malformed_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("ACGT\tACGT\nACGT\n")
        with pytest.raises(ValueError, match=r"bad\.tsv.*line 2"):
            list(pairs_from_tsv(path))

    def test_read_file_as_tsv_input_is_a_clear_error(self, session, tmp_path):
        from repro.genomics import Read, write_fastq

        path = tmp_path / "reads.fastq"
        write_fastq(path, [Read(name="a", bases="ACGT")])
        with pytest.raises(ValueError, match="reference FASTA"):
            session.run(workload_for(InputSpec(kind="tsv", path=str(path))))

    def test_iter_reads_detects_fastq_and_fasta(self, tmp_path):
        from repro.genomics import Read, Sequence, write_fasta, write_fastq

        fq = tmp_path / "r.fastq"
        write_fastq(fq, [Read(name="a", bases="ACGT")])
        fa = tmp_path / "r.fa"
        write_fasta(fa, [Sequence(name="b", bases="GGTT")])
        assert [r.name for r in iter_reads(fq)] == ["a"]
        assert [r.bases for r in iter_reads(fa)] == ["GGTT"]
        with pytest.raises(ValueError, match="unrecognised"):
            list(iter_reads(tmp_path / "r.bam"))

    def test_tsv_file_matches_in_memory_pairs(self, session, dataset, tmp_path):
        path = tmp_path / "pairs.tsv"
        with open(path, "w") as fh:
            for read, segment in zip(dataset.reads, dataset.segments):
                fh.write(f"{read}\t{segment}\n")
        in_memory = session.run(workload_for(dataset, mode="memory"))
        from_file = session.run(workload_for(InputSpec(kind="tsv", path=str(path))))
        assert from_file.dataset == "pairs.tsv"  # named after the file
        assert_same_run(from_file, in_memory)
        bounded = session.run(
            workload_for(InputSpec(kind="tsv", path=str(path)), collect_decisions=False)
        )
        assert bounded.raw.accepted is None
        assert bounded.summary == from_file.summary

    def test_mapper_accepts_fastq_path(self, tmp_path):
        from repro.genomics import write_fastq
        from repro.genomics.reference import ReferenceGenome
        from repro.mapper.mrfast import MrFastMapper
        from repro.simulate.genome import generate_reference
        from repro.simulate.reads import simulate_reads

        reference = generate_reference(800, seed=3)
        reads = simulate_reads(reference, n_reads=12, read_length=30, seed=4)
        path = tmp_path / "reads.fastq"
        write_fastq(path, reads)

        from_list = MrFastMapper(reference, error_threshold=3).map_reads(reads)
        from_path = MrFastMapper(reference, error_threshold=3).map_reads(str(path))
        assert from_path.stats.n_reads == 12
        assert from_path.stats.summary() == from_list.stats.summary()
        from_iterator = MrFastMapper(reference, error_threshold=3).map_reads(
            iter(reads)
        )
        assert from_iterator.stats.summary() == from_list.stats.summary()


def write_tsv(path, lengths):
    """A pairs TSV with one random line per ``(read length, segment length)``.

    The lines are seeded, so two files whose length lists share a prefix
    share those lines.
    """
    rng = random.Random(0)
    path.write_text("".join(
        f"{random_sequence(read, rng)}\t{random_sequence(segment, rng)}\n"
        for read, segment in lengths
    ))
    return path


class TestTsvReadLengths:
    """A tsv input takes one read length; a mismatch names the file, the line
    and both lengths, after the pairs before it."""

    MIXED = [(40, 40)] * 100 + [(50, 50)] * 100
    MIXED_ERROR = (
        r"workload\.input\.path: .*mixed\.tsv: line 101: the pair has 50 bases, "
        r"but the pairs before it have 40"
    )

    @staticmethod
    def workload(path, chunk_size, **execution):
        return Workload.from_dict({
            "input": {"kind": "tsv", "path": str(path)},
            "filter": {"filter": "gatekeeper-gpu", "error_threshold": ERROR_THRESHOLD},
            "execution": {"mode": "streaming", "chunk_size": chunk_size, **execution},
        })

    @pytest.mark.parametrize("prefetch", [False, True])
    @pytest.mark.parametrize("chunk_size", [100, 1000], ids=["at-a-chunk-boundary", "in-one-block"])
    def test_mixed_read_lengths(self, session, tmp_path, chunk_size, prefetch):
        path = write_tsv(tmp_path / "mixed.tsv", self.MIXED)
        with pytest.raises(ValueError, match=self.MIXED_ERROR):
            session.run(self.workload(path, chunk_size, prefetch=prefetch))

    def test_read_longer_than_its_segment(self, session, tmp_path):
        path = write_tsv(tmp_path / "short.tsv", [(40, 40)] * 5 + [(40, 39)])
        with pytest.raises(ValueError, match=(
            r"workload\.input\.path: .*short\.tsv: line 6: the read has 40 bases "
            r"but its segment has 39"
        )):
            session.run(self.workload(path, 100))

    @pytest.mark.parametrize("prefetch", [False, True])
    def test_probe_and_shard_that_end_before_the_bad_line(self, session, tmp_path, prefetch):
        path = write_tsv(tmp_path / "mixed.tsv", self.MIXED)
        head = write_tsv(tmp_path / "head.tsv", self.MIXED[:100])
        expected = session.run(self.workload(head, 64))
        # With 64-pair blocks, the bad line 101 lies in the shard's second block.
        shard = {"index": 0, "n_shards": 2, "start": 0, "stop": 100, "total": 200}
        result = session.run(self.workload(path, 64, prefetch=prefetch, shard=shard))
        assert result.summary == expected.summary
        probe = session.probe_pairs(self.workload(path, 64), 100)
        assert list(decode_pairs([probe])) == list(pairs_from_tsv(head))
