"""Tests for the unified FilterEngine API: registry, batch protocol, cascade."""

import random

import numpy as np
import pytest

from repro.align import edit_distance
from repro.api import Session, Workload
from repro.core import EncodingActor
from repro.engine import (
    FilterCascade,
    FilterEngine,
    available_filters,
    get_filter,
    get_filter_class,
    register_filter,
    resolve_filter,
)
from repro.filters import (
    GateKeeperFilter,
    GateKeeperGPUFilter,
    MagnetFilter,
    PreAlignmentFilter,
    SHDFilter,
    ShoujiFilter,
    SneakySnakeFilter,
)
from repro.genomics.encoding import EncodedPairBatch, encode_batch_codes
from repro.gpusim import SETUP_1
from repro.simulate import build_dataset
from helpers import mutated_pair, random_sequence

ALL_KEYS = ["gatekeeper-gpu", "gatekeeper", "shd", "magnet", "shouji", "sneakysnake"]
ALL_CLASSES = {
    "gatekeeper-gpu": GateKeeperGPUFilter,
    "gatekeeper": GateKeeperFilter,
    "shd": SHDFilter,
    "magnet": MagnetFilter,
    "shouji": ShoujiFilter,
    "sneakysnake": SneakySnakeFilter,
}


@pytest.fixture(scope="module")
def dataset_1k():
    """The acceptance-criteria pool: 1k randomized pairs (contains N pairs)."""
    return build_dataset("Set 3", n_pairs=1_000, seed=42)


def mixed_pairs(n: int, length: int, seed: int) -> tuple[list[str], list[str]]:
    """Random mutated/unrelated pairs spanning the accept/reject boundary."""
    rng = random.Random(seed)
    reads, segments = [], []
    for i in range(n):
        if i % 4 == 3:
            read, segment = random_sequence(length, rng), random_sequence(length, rng)
        else:
            read, segment = mutated_pair(length, rng.randrange(0, 12), rng)
        reads.append(read)
        segments.append(segment)
    return reads, segments


class TestRegistry:
    def test_available_filters(self):
        assert available_filters() == ALL_KEYS

    def test_get_filter_classes(self):
        for key, cls in ALL_CLASSES.items():
            assert get_filter_class(key) is cls
            instance = get_filter(key, 5)
            assert isinstance(instance, cls)
            assert instance.error_threshold == 5

    def test_aliases_and_normalisation(self):
        assert get_filter_class("GateKeeper-GPU") is GateKeeperGPUFilter
        assert get_filter_class("gatekeeper_gpu") is GateKeeperGPUFilter
        assert get_filter_class("SneakySnake") is SneakySnakeFilter
        assert get_filter_class("snake") is SneakySnakeFilter
        assert get_filter_class("MAGNET") is MagnetFilter
        assert get_filter_class("  Shouji ") is ShoujiFilter

    def test_unknown_filter_raises(self):
        with pytest.raises(KeyError, match="unknown filter"):
            get_filter_class("minimap9000")

    def test_filter_kwargs_forwarded(self):
        assert get_filter("shouji", 5, window=6).window == 6

    def test_resolve_filter_specs(self):
        instance = ShoujiFilter(5)
        assert resolve_filter(instance, 5) is instance
        assert isinstance(resolve_filter("shd", 3), SHDFilter)
        assert isinstance(resolve_filter(MagnetFilter, 3), MagnetFilter)
        with pytest.raises(ValueError):
            resolve_filter(instance, 7)  # threshold mismatch
        with pytest.raises(ValueError, match="already-constructed"):
            resolve_filter(instance, 5, window=8)  # kwargs cannot apply
        with pytest.raises(TypeError):
            resolve_filter(123, 5)

    def test_register_filter_guards(self):
        with pytest.raises(ValueError):
            register_filter("shouji", ShoujiFilter)  # already registered
        with pytest.raises(TypeError):
            register_filter("not-a-filter", dict)


class TestBatchProtocol:
    """Vectorized estimate_edits_batch agrees with the per-pair path."""

    @pytest.mark.parametrize("key", ALL_KEYS)
    @pytest.mark.parametrize("threshold", [0, 2, 5])
    def test_batch_matches_scalar(self, key, threshold):
        reads, segments = mixed_pairs(60, 100, seed=threshold * 101 + 7)
        read_codes, _ = encode_batch_codes(reads)
        ref_codes, _ = encode_batch_codes(segments)
        flt = get_filter(key, threshold)
        batch = flt.estimate_edits_batch(read_codes, ref_codes)
        assert batch.shape == (60,)
        for i in range(60):
            assert int(batch[i]) == flt.estimate_edits(reads[i], segments[i])

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_batch_matches_scalar_odd_length(self, key):
        reads, segments = mixed_pairs(20, 73, seed=5)
        read_codes, _ = encode_batch_codes(reads)
        ref_codes, _ = encode_batch_codes(segments)
        flt = get_filter(key, 4)
        batch = flt.estimate_edits_batch(read_codes, ref_codes)
        for i in range(20):
            assert int(batch[i]) == flt.estimate_edits(reads[i], segments[i])

    def test_base_fallback_loop(self):
        """A filter without a vectorised kernel still honours the protocol."""

        class CountMismatches(PreAlignmentFilter):
            name = "CountMismatches"

            def estimate_edits_codes(self, read_codes, ref_codes):
                return int((read_codes != ref_codes).sum())

        reads, segments = mixed_pairs(10, 50, seed=3)
        read_codes, _ = encode_batch_codes(reads)
        ref_codes, _ = encode_batch_codes(segments)
        flt = CountMismatches(5)
        batch = flt.estimate_edits_batch(read_codes, ref_codes)
        for i in range(10):
            assert int(batch[i]) == flt.estimate_edits(reads[i], segments[i])

    def test_batch_shape_validation(self):
        flt = get_filter("shouji", 2)
        with pytest.raises(ValueError):
            flt.estimate_edits_batch(
                np.zeros((2, 10), dtype=np.uint8), np.zeros((2, 8), dtype=np.uint8)
            )


class TestFilterEngine:
    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_engine_matches_filter_pair_on_1k_pairs(self, dataset_1k, key):
        """Acceptance criterion: engine decisions == per-pair filter_pair path."""
        engine = FilterEngine(key, read_length=100, error_threshold=5)
        result = engine.filter_encoded(dataset_1k.encoded())
        assert result.n_pairs == 1_000
        scalar = get_filter(key, 5)
        step = 7 if key in ("magnet", "sneakysnake") else 1
        for i in range(0, dataset_1k.n_pairs, step):
            expected = scalar.filter_pair(
                dataset_1k.reads[i], dataset_1k.segments[i]
            ).accepted
            assert bool(result.accepted[i]) == expected, (key, i)

    def test_engine_accepts_instance_and_class_specs(self, dataset_1k):
        pairs = dataset_1k.encoded()
        by_name = FilterEngine("shd", 100, 5).filter_encoded(pairs)
        by_cls = FilterEngine(SHDFilter, 100, 5).filter_encoded(pairs)
        by_instance = FilterEngine(SHDFilter(5), 100, 5).filter_encoded(pairs)
        assert np.array_equal(by_name.accepted, by_cls.accepted)
        assert np.array_equal(by_name.accepted, by_instance.accepted)

    def test_instance_threshold_mismatch_raises(self):
        with pytest.raises(ValueError):
            FilterEngine(ShoujiFilter(3), read_length=100, error_threshold=5)

    def test_read_length_mismatch_raises(self):
        engine = FilterEngine("shouji", read_length=100, error_threshold=5)
        with pytest.raises(ValueError, match="read_length=100"):
            engine.filter_encoded(EncodedPairBatch.from_lists(["ACGT" * 30], ["ACGT" * 30]))

    def test_device_split_and_batching_stable(self, dataset_1k):
        single = FilterEngine("shouji", 100, 5)
        multi = FilterEngine("shouji", 100, 5, setup=SETUP_1, n_devices=4, max_reads_per_batch=77)
        r1 = single.filter_encoded(dataset_1k.encoded())
        r4 = multi.filter_encoded(dataset_1k.encoded())
        assert np.array_equal(r1.accepted, r4.accepted)
        assert r4.n_batches >= 4

    def test_undefined_pairs_pass(self):
        engine = FilterEngine("sneakysnake", read_length=8, error_threshold=0)
        result = engine.filter_encoded(
            EncodedPairBatch.from_lists(["ACGTNACG", "ACGTACGT"], ["ACGTAACG", "TTTTTTTT"])
        )
        assert result.undefined.tolist() == [True, False]
        assert bool(result.accepted[0])  # N pair passes unfiltered
        assert not bool(result.accepted[1])
        assert result.metadata["filter"] == "SneakySnake"

    def test_timing_and_summary(self, dataset_1k):
        result = FilterEngine("magnet", 100, 5).filter_encoded(dataset_1k.encoded())
        assert result.kernel_time_s > 0
        assert result.filter_time_s > result.kernel_time_s
        assert result.summary()["n_pairs"] == 1_000

    def test_filter_encoded_is_the_only_filtering_method(self):
        for cls in (FilterEngine, FilterCascade):
            for name in ("filter_lists", "filter_pairs", "filter_dataset"):
                assert not hasattr(cls, name), (cls, name)
        # The GPU facade and the CPU baseline class are gone with their modules.
        for module in ("repro.core.filter", "repro.filters.cpu"):
            with pytest.raises(ModuleNotFoundError):
                __import__(module)


class TestFilterCascade:
    def test_cascade_runs_and_accounts(self, dataset_1k):
        cascade = FilterCascade.from_names(
            ["gatekeeper-gpu", "sneakysnake"], read_length=100, error_threshold=5
        )
        result = cascade.filter_encoded(dataset_1k.encoded())
        assert result.n_pairs == 1_000
        assert len(result.stage_accounts) == 2
        first, second = result.stage_accounts
        assert first.filter_name == "GateKeeper-GPU"
        assert second.filter_name == "SneakySnake"
        assert first.n_input == 1_000
        assert second.n_input == first.n_accepted
        assert result.n_accepted == second.n_accepted
        summaries = result.stage_summaries()
        assert summaries[0]["filter"] == "GateKeeper-GPU"

    def test_cascade_subset_of_first_stage(self, dataset_1k):
        stage1 = FilterEngine("gatekeeper-gpu", 100, 5)
        cascade = FilterCascade(
            [stage1, FilterEngine("sneakysnake", 100, 5)]
        )
        alone = stage1.filter_encoded(dataset_1k.encoded())
        combined = cascade.filter_encoded(dataset_1k.encoded())
        # The cascade can only reject more, never resurrect a rejected pair.
        assert not np.any(combined.accepted & ~alone.accepted)

    def test_cascade_never_false_rejects(self):
        """A pair within the threshold survives every no-false-reject stage.

        Only the stages that compute true lower bounds of the edit distance
        participate (GateKeeper-GPU and SneakySnake); Shouji/MAGNET trade a
        few false rejects for tighter estimates, as the paper observes.
        """
        threshold = 5
        reads, segments = mixed_pairs(400, 100, seed=99)
        cascade = FilterCascade.from_names(
            ["gatekeeper-gpu", "sneakysnake"],
            read_length=100,
            error_threshold=threshold,
        )
        result = cascade.filter_encoded(EncodedPairBatch.from_lists(reads, segments))
        for i in range(len(reads)):
            if edit_distance(reads[i], segments[i]) <= threshold:
                assert bool(result.accepted[i]), i

    def test_cascade_validation(self):
        with pytest.raises(ValueError):
            FilterCascade([])
        with pytest.raises(ValueError):
            FilterCascade(
                [FilterEngine("shd", 100, 5), FilterEngine("shouji", 100, 4)]
            )
        with pytest.raises(ValueError):
            FilterCascade(
                [FilterEngine("shd", 100, 5), FilterEngine("shouji", 150, 5)]
            )
        # Stages must agree on every value the cascade reports as its own.
        with pytest.raises(ValueError, match="n_devices"):
            FilterCascade(
                [
                    FilterEngine("gatekeeper-gpu", 100, 5, n_devices=2),
                    FilterEngine("sneakysnake", 100, 5, n_devices=1),
                ]
            )
        with pytest.raises(ValueError, match="encoding"):
            FilterCascade(
                [
                    FilterEngine("shd", 100, 5, encoding=EncodingActor.HOST),
                    FilterEngine("shouji", 100, 5, encoding=EncodingActor.DEVICE),
                ]
            )
        with pytest.raises(ValueError, match="kernel_tier"):
            FilterCascade(
                [
                    FilterEngine("shd", 100, 5, kernel_tier="numpy"),
                    FilterEngine("shouji", 100, 5, kernel_tier="native"),
                ]
            )


def run_filter(filters, n_pairs, dataset="Set 1", seed=0, verify=True):
    """One filtering workload on a fresh session, decision vectors kept."""
    return Session().run(
        Workload.from_dict(
            {
                "input": {"kind": "dataset", "dataset": dataset, "n_pairs": n_pairs,
                          "seed": seed},
                "filter": {"filters": filters, "error_threshold": 5},
                "execution": {"verify": verify},
                "output": {"collect_decisions": True},
            }
        )
    )


class TestSessionWithAnyFilter:
    def test_session_with_non_gatekeeper_filter(self):
        result = run_filter(["shouji"], 200)
        summary = result.summary
        assert summary["n_pairs"] == 200
        assert summary["n_accepted"] + summary["n_rejected"] == 200
        assert summary["error_threshold"] == 5
        assert result.filter == "Shouji"

    def test_session_with_sneakysnake(self):
        result = run_filter(["sneakysnake"], 150)
        assert result.summary["n_pairs"] == 150
        assert result.summary["reduction_pct"] > 0

    def test_session_with_magnet(self):
        assert run_filter(["magnet"], 100).summary["n_pairs"] == 100

    def test_engines_are_sized_per_read_length(self):
        """One filter spec at two read lengths never reuses a stale engine."""
        session = Session()
        for dataset, read_length in (("Set 1", 100), ("Set 6", 150)):
            workload = Workload.from_dict(
                {
                    "input": {"kind": "dataset", "dataset": dataset, "n_pairs": 50, "seed": 8},
                    "filter": {"filter": "gatekeeper-gpu", "error_threshold": 5},
                    "execution": {"verify": False},
                    "output": {"collect_decisions": True},
                }
            )
            result = session.run(workload)
            assert result.summary["read_length"] == read_length
            assert session.engine_for(workload, read_length).read_length == read_length
        # Decisions match a correctly-sized engine, not a truncated one.
        ds_150 = build_dataset("Set 6", n_pairs=50, seed=8)
        fresh = FilterEngine("gatekeeper-gpu", 150, 5).filter_encoded(ds_150.encoded())
        assert np.array_equal(result.raw.accepted, fresh.accepted)

    def test_session_with_cascade(self):
        result = run_filter(["gatekeeper-gpu", "sneakysnake"], 200)
        assert result.summary["n_pairs"] == 200
        assert [stage["stage"] for stage in result.stages] == [0, 1]


class TestMapperWithRegistry:
    def test_mapper_accepts_filter_name(self):
        from repro.analysis import experiments

        run = experiments.run_whole_genome(
            n_reads=40, genome_length=8_000, filter_name="shouji", seed=3
        )
        rows = experiments.whole_genome_mapping_rows(run)
        assert rows[1]["mrFAST with"] == "Shouji"
        # The filter saves verifications but must not lose mappings.
        assert rows[1]["mappings"] == rows[0]["mappings"]
        assert rows[1]["verification_pairs"] <= rows[0]["candidate_pairs"]
