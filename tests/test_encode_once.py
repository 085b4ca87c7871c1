"""Regression tests for the encode-once data flow.

Every layer of the stack — engine, cascade, the session's chunk runner,
mapper batch — must encode each pair's strings exactly once, no matter how
many devices, batches, chunks or cascade stages the work passes through.  Encoding is counted by
monkeypatching :func:`repro.genomics.encoding.encode_batch_codes`, the single
funnel every string-to-codes conversion goes through.
"""

import numpy as np
import pytest

import repro.genomics.encoding as encoding_module
from repro.api import Session, Workload
from repro.engine import FilterCascade, FilterEngine
from repro.genomics.encoding import EncodedPairBatch
from repro.simulate.datasets import build_dataset


@pytest.fixture
def dataset():
    return build_dataset("Set 1", n_pairs=600, seed=11)


@pytest.fixture
def count_encodes(monkeypatch):
    """Patch the encoding funnel with a call/sequence counter."""
    calls = {"calls": 0, "sequences": 0}
    original = encoding_module.encode_batch_codes

    def counting(sequences, *args, **kwargs):
        calls["calls"] += 1
        calls["sequences"] += len(sequences)
        return original(sequences, *args, **kwargs)

    monkeypatch.setattr(encoding_module, "encode_batch_codes", counting)
    return calls


class TestEncodeOnce:
    def test_engine_encodes_each_side_once(self, dataset, count_encodes):
        engine = FilterEngine(
            "gatekeeper-gpu", read_length=dataset.read_length, error_threshold=5,
            n_devices=3, max_reads_per_batch=100,
        )
        engine.filter_encoded(EncodedPairBatch.from_lists(dataset.reads, dataset.segments))
        # One call for the reads, one for the segments — regardless of the
        # device split and the per-device batching.
        assert count_encodes["calls"] == 2
        assert count_encodes["sequences"] == 2 * len(dataset)

    def test_cascade_encodes_exactly_once_per_pair(self, dataset, count_encodes):
        cascade = FilterCascade.from_names(
            ["gatekeeper-gpu", "magnet", "sneakysnake"],
            read_length=dataset.read_length,
            error_threshold=5,
        )
        result = cascade.filter_encoded(
            EncodedPairBatch.from_lists(dataset.reads, dataset.segments)
        )
        # Three stages, but the survivors of stage N are index selections on
        # the parent EncodedPairBatch — never re-encoded string lists.
        assert count_encodes["calls"] == 2
        assert count_encodes["sequences"] == 2 * len(dataset)
        assert 0 < result.n_accepted < len(dataset)

    def test_cascade_decisions_unchanged_by_encode_once(self, dataset):
        cascade = FilterCascade.from_names(
            ["gatekeeper-gpu", "sneakysnake"],
            read_length=dataset.read_length,
            error_threshold=5,
        )
        pairs = EncodedPairBatch.from_lists(dataset.reads, dataset.segments)
        combined = cascade.filter_encoded(pairs)
        # Survivors are index selections on the parent batch, so every pair
        # gets what each stage decides for it over the whole batch.
        first, second = (stage.filter_encoded(pairs) for stage in cascade.stages)
        assert np.array_equal(combined.accepted, first.accepted & second.accepted)
        assert np.array_equal(
            combined.estimated_edits,
            np.where(first.accepted, second.estimated_edits, first.estimated_edits),
        )

    def test_dataset_encoded_batch_is_cached(self, dataset, count_encodes):
        first = dataset.encoded()
        second = dataset.encoded()
        assert first is second
        assert count_encodes["calls"] == 2
        engine = FilterEngine(
            "gatekeeper", read_length=dataset.read_length, error_threshold=5
        )
        engine.filter_encoded(dataset.encoded())
        engine.filter_encoded(dataset.encoded())
        # Runs over the cached batch never encode again.
        assert count_encodes["calls"] == 2

    def test_selection_and_slicing_never_reencode(self, dataset, count_encodes):
        pairs = EncodedPairBatch.from_lists(dataset.reads, dataset.segments)
        assert count_encodes["calls"] == 2
        pairs.read_words  # pack once
        view = pairs[10:200]
        indices = np.arange(0, 90, 3)
        picked = view.select(indices)
        assert picked.n_pairs == 30
        # Cached words propagate through slicing and index selection.
        assert np.array_equal(picked.read_words, pairs.read_words[10:200][indices])
        assert count_encodes["calls"] == 2


def filter_workload(input_section, **execution):
    return Workload.from_dict(
        {
            "input": input_section,
            "filter": {"cascade": ["gatekeeper-gpu", "shouji"], "error_threshold": 5},
            "execution": {"chunk_size": 100, "n_devices": 2, "verify": False, **execution},
        }
    )


class TestWarmSessionEncodeCount:
    """Encode calls on a warm session's second run, for every input path."""

    @pytest.mark.parametrize("sharded", [False, True], ids=["whole", "shard"])
    @pytest.mark.parametrize("mode", ["memory", "streaming"])
    def test_dataset_input_encodes_nothing_when_warm(self, count_encodes, mode, sharded):
        # Dataset inputs run as row-slice views of the session-cached batch.
        shard = {"index": 1, "n_shards": 3, "start": 200, "stop": 400, "total": 600}
        workload = filter_workload(
            {"kind": "dataset", "dataset": "Set 1", "n_pairs": 600, "seed": 11},
            mode=mode,
            **({"shard": shard} if sharded else {}),
        )
        session = Session()
        first = session.run(workload).to_json()
        count_encodes["calls"] = 0
        assert session.run(workload).to_json() == first
        assert count_encodes["calls"] == 0

    def test_tsv_input_encodes_twice_per_chunk(self, dataset, count_encodes, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text(
            "".join(f"{r}\t{s}\n" for r, s in zip(dataset.reads, dataset.segments))
        )
        workload = filter_workload({"kind": "tsv", "path": str(path)})
        session = Session()
        session.run(workload)
        count_encodes.update(calls=0, sequences=0)
        result = session.run(workload)
        assert result.streaming["n_chunks"] == 6
        # Two encode calls (reads + segments) per chunk, across all cascade
        # stages and device shares.
        assert count_encodes["calls"] == 2 * result.streaming["n_chunks"]
        assert count_encodes["sequences"] == 2 * len(dataset)


class TestEncodedBatchSemantics:
    def test_empty_batch(self):
        pairs = EncodedPairBatch.from_lists([], [])
        assert pairs.n_pairs == 0 and pairs.length == 0

    def test_mismatched_lists_raise(self):
        with pytest.raises(ValueError):
            EncodedPairBatch.from_lists(["ACGT"], [])

    def test_undefined_combines_both_sides(self):
        pairs = EncodedPairBatch.from_lists(["ACGT", "ACGT"], ["ACNT", "ACGT"])
        assert pairs.undefined.tolist() == [True, False]

    def test_bytes_input_encodes_without_str_round_trip(self):
        via_bytes = EncodedPairBatch.from_lists([b"ACGT", b"ggta"], [b"ACNT", b"ACGT"])
        via_str = EncodedPairBatch.from_lists(["ACGT", "GGTA"], ["ACNT", "ACGT"])
        assert np.array_equal(via_bytes.read_codes, via_str.read_codes)
        assert np.array_equal(via_bytes.undefined, via_str.undefined)

    def test_lengths_view(self):
        pairs = EncodedPairBatch.from_lists(["ACGT"] * 3, ["ACGT"] * 3)
        assert pairs.reads.lengths.tolist() == [4, 4, 4]
