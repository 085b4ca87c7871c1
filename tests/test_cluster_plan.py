"""Shard planning: ShardSpec validation, slice computation, plan materialisation."""

import json

import pytest

from repro.api import Session
from repro.api.workload import ShardSpec, Workload
from repro.cluster import (
    ShardPlanError,
    local_script,
    plan_shards,
    shard_stem,
    slurm_script,
    write_plan,
)


def memory_workload(n_pairs=240, **execution):
    return {
        "input": {"kind": "dataset", "dataset": "Set 1", "n_pairs": n_pairs, "seed": 0},
        "filter": {"filter": "gatekeeper-gpu", "error_threshold": 3},
        "execution": {"mode": "memory", **execution},
    }


def streaming_workload(n_pairs=500, chunk_size=64, **execution):
    return {
        "input": {"kind": "dataset", "dataset": "Set 1", "n_pairs": n_pairs, "seed": 0},
        "filter": {"filter": "gatekeeper-gpu", "error_threshold": 3},
        "execution": {"mode": "streaming", "chunk_size": chunk_size, **execution},
    }


# --------------------------------------------------------------------------- #
# ShardSpec / workload validation
# --------------------------------------------------------------------------- #
class TestShardSpec:
    def test_valid(self):
        spec = ShardSpec(index=1, n_shards=4, start=10, stop=20, total=40)
        assert spec.n_pairs == 10

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            (dict(index=4, n_shards=4, start=0, stop=10, total=40), "index"),
            (dict(index=-1, n_shards=4, start=0, stop=10, total=40), "index"),
            (dict(index=0, n_shards=0, start=0, stop=10, total=40), "n_shards"),
            (dict(index=0, n_shards=1, start=10, stop=10, total=40), "start < stop"),
            (dict(index=0, n_shards=1, start=0, stop=50, total=40), "exceeds"),
            (dict(index=0, n_shards=1, start=0, stop=1, total=0), "total"),
        ],
    )
    def test_invalid(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            ShardSpec(**kwargs)

    def test_workload_coerces_shard_mapping(self):
        data = memory_workload(n_pairs=40)
        data["execution"]["shard"] = {
            "index": 0, "n_shards": 2, "start": 0, "stop": 20, "total": 40,
        }
        workload = Workload.from_dict(data)
        assert isinstance(workload.execution.shard, ShardSpec)
        assert workload.execution.shard.n_pairs == 20

    def test_mapping_workloads_cannot_be_sharded(self):
        data = {
            "input": {"kind": "mapping", "n_reads": 10},
            "filter": {"filter": "gatekeeper-gpu", "error_threshold": 3},
            "execution": {
                "shard": {"index": 0, "n_shards": 2, "start": 0, "stop": 5, "total": 10}
            },
        }
        with pytest.raises(ValueError, match="mapping workloads cannot be sharded"):
            Workload.from_dict(data)

    def test_dataset_total_must_match_n_pairs(self):
        data = memory_workload(n_pairs=40)
        data["execution"]["shard"] = {
            "index": 0, "n_shards": 2, "start": 0, "stop": 20, "total": 99,
        }
        with pytest.raises(ValueError, match="must equal input.n_pairs"):
            Workload.from_dict(data)

    def test_streaming_shards_must_be_chunk_aligned(self):
        data = streaming_workload(n_pairs=500, chunk_size=64)
        data["execution"]["shard"] = {
            "index": 1, "n_shards": 2, "start": 100, "stop": 500, "total": 500,
        }
        with pytest.raises(ValueError, match="chunk boundary"):
            Workload.from_dict(data)


# --------------------------------------------------------------------------- #
# Run-time shard checks (what workload validation cannot see)
# --------------------------------------------------------------------------- #
class TestSessionShardChecks:
    @pytest.mark.parametrize("mode", ["memory", "streaming"])
    def test_dataset_total_mismatch_is_a_clear_error(self, mode, monkeypatch):
        from repro.simulate import datasets

        build_dataset = datasets.build_dataset
        # The input produces fewer pairs than the plan's total said it would.
        monkeypatch.setattr(
            datasets,
            "build_dataset",
            lambda name, n_pairs, seed: build_dataset(name, n_pairs=n_pairs - 8, seed=seed),
        )
        data = (memory_workload if mode == "memory" else streaming_workload)(n_pairs=64)
        data["execution"]["shard"] = {
            "index": 0, "n_shards": 2, "start": 0, "stop": 32, "total": 64,
        }
        with pytest.raises(
            ValueError, match=r"shard\.total: the shard plan assumed 64 pairs but the input produced 56"
        ):
            Session().run(Workload.from_dict(data))

    @pytest.mark.parametrize(
        "start, stop, produced",
        [(8, 16, 2), (16, 24, 0)],
        ids=["runs-past-the-end", "starts-past-the-end"],
    )
    def test_input_shorter_than_plan_is_a_clear_error(self, start, stop, produced, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("ACGTACGT\tACGTACGT\n" * 10)
        data = {
            "input": {"kind": "tsv", "path": str(path)},
            "filter": {"filter": "gatekeeper-gpu", "error_threshold": 2},
            "execution": {
                "mode": "streaming",
                "chunk_size": 8,
                "shard": {"index": 1, "n_shards": 2, "start": start, "stop": stop, "total": stop},
            },
        }
        with pytest.raises(
            ValueError,
            match=rf"slice \[{start}, {stop}\) produced {produced} pairs \(expected 8\); "
            r"the input is shorter than the shard plan assumed",
        ):
            Session().run(Workload.from_dict(data))


# --------------------------------------------------------------------------- #
# plan_shards
# --------------------------------------------------------------------------- #
class TestPlanShards:
    def test_memory_slices_tile_and_balance(self):
        plan = plan_shards(memory_workload(n_pairs=241), 4)
        assert plan.mode == "memory"
        assert plan.total == 241
        assert plan.slices[0][0] == 0
        assert plan.slices[-1][1] == 241
        for (_, stop), (start, _) in zip(plan.slices, plan.slices[1:]):
            assert stop == start
        sizes = [stop - start for start, stop in plan.slices]
        assert max(sizes) - min(sizes) <= 1

    def test_streaming_slices_are_chunk_aligned(self):
        plan = plan_shards(streaming_workload(n_pairs=500, chunk_size=64), 3)
        assert plan.chunk_size == 64
        for start, stop in plan.slices[:-1]:
            assert start % 64 == 0 and stop % 64 == 0
        assert plan.slices[0][0] == 0
        assert plan.slices[-1][1] == 500  # last shard absorbs the ragged chunk

    def test_every_shard_workload_validates(self):
        plan = plan_shards(memory_workload(n_pairs=100), 3)
        for index, data in enumerate(plan.shard_workloads()):
            workload = Workload.from_dict(data)
            assert workload.execution.shard.index == index

    def test_shard_workload_differs_only_by_shard_section(self):
        original = Workload.from_dict(memory_workload(n_pairs=100)).to_dict()
        shard = plan_shards(memory_workload(n_pairs=100), 2).shard_workload(1)
        shard["execution"].pop("shard")
        assert shard == original

    @pytest.mark.parametrize(
        "workload, n_shards, fragment",
        [
            (memory_workload(n_pairs=4), 5, "exceeds the input's 4 pair"),
            (streaming_workload(n_pairs=100, chunk_size=64), 3, "chunk-aligned"),
            (memory_workload(), 0, "at least 1"),
        ],
    )
    def test_plan_errors(self, workload, n_shards, fragment):
        with pytest.raises(ShardPlanError, match=fragment):
            plan_shards(workload, n_shards)

    def test_cannot_plan_mapping_or_pairs_or_sharded(self):
        mapping = {
            "input": {"kind": "mapping", "n_reads": 10},
            "filter": {"filter": "gatekeeper-gpu", "error_threshold": 3},
        }
        with pytest.raises(ShardPlanError, match="no pair range"):
            plan_shards(mapping, 2)
        pairs = {
            "input": {"kind": "pairs", "pairs": [("ACGT", "ACGT")] * 4},
            "filter": {"filter": "gatekeeper-gpu", "error_threshold": 3},
        }
        with pytest.raises(ShardPlanError, match="'pairs'"):
            plan_shards(pairs, 2)
        sharded = plan_shards(memory_workload(n_pairs=100), 2).shard_workload(0)
        with pytest.raises(ShardPlanError, match="already a shard"):
            plan_shards(sharded, 2)


# --------------------------------------------------------------------------- #
# write_plan / job scripts
# --------------------------------------------------------------------------- #
class TestWritePlan:
    def test_materialised_plan(self, tmp_path):
        plan = plan_shards(memory_workload(n_pairs=100), 4)
        paths = write_plan(plan, tmp_path / "plan", slurm=True)

        assert [p.name for p in paths["shards"]] == [
            "shard-000.json", "shard-001.json", "shard-002.json", "shard-003.json",
        ]
        for path in paths["shards"]:
            Workload.from_dict(json.loads(path.read_text()))

        manifest = json.loads(paths["manifest"].read_text())
        assert manifest["kind"] == "repro-shard-manifest"
        assert manifest["n_shards"] == 4
        assert manifest["total"] == 100
        assert manifest["shards"][2]["workload"] == "shard-002.json"
        assert manifest["shards"][2]["result"] == "out/shard-002.json"

        local = paths["local_script"].read_text()
        assert "repro run" in local and "shard-%03d" in local
        slurm = paths["slurm_script"].read_text()
        assert "#SBATCH --array=0-3" in slurm
        assert "SLURM_ARRAY_TASK_ID" in slurm
        for key in ("local_script", "slurm_script"):
            assert paths[key].stat().st_mode & 0o111
        assert paths["results_dir"].is_dir()

    def test_script_generators(self):
        assert shard_stem(7) == "shard-007"
        assert "seq 0 7" in local_script(8)
        assert "#SBATCH --array=0-15" in slurm_script(16)
