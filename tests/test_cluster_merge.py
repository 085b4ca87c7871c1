"""Shard-merge: byte-identity to the single-node run + robustness to bad inputs.

The identity tests run the same workload unsharded and as every shard of a
plan (all in-process through :class:`repro.api.Session`), then assert the
merged Result's ``to_json()`` equals the single run's **byte for byte** —
the central contract of :mod:`repro.cluster.merge`.
"""

import json

import pytest

from repro.api import Session, Workload
from repro.cluster import (
    ShardFileError,
    ShardMismatchError,
    ShardSetError,
    load_shard_result,
    merge_files,
    merge_result_dicts,
    plan_shards,
)


def _filter_section(cascade):
    if cascade:
        return {"filters": ["gatekeeper-gpu", "sneakysnake"], "error_threshold": 3}
    return {"filter": "gatekeeper-gpu", "error_threshold": 3}


def memory_workload(n_pairs=300, cascade=False, verify=True):
    return {
        "input": {"kind": "dataset", "dataset": "Set 1", "n_pairs": n_pairs, "seed": 0},
        "filter": _filter_section(cascade),
        "execution": {"mode": "memory", "verify": verify},
    }


def streaming_workload(n_pairs=400, cascade=False, verify=True, **execution):
    return {
        "input": {"kind": "dataset", "dataset": "Set 1", "n_pairs": n_pairs, "seed": 0},
        "filter": _filter_section(cascade),
        "execution": {
            "mode": "streaming", "chunk_size": 64, "verify": verify, **execution,
        },
    }


def single_run_json(workload_dict):
    return Session().run(Workload.from_dict(workload_dict)).to_json()


def shard_result_dicts(workload_dict, n_shards):
    """Run every shard of a plan in-process; returns (label, dict) pairs."""
    plan = plan_shards(workload_dict, n_shards)
    session = Session()
    results = []
    for index, data in enumerate(plan.shard_workloads()):
        result = session.run(Workload.from_dict(data))
        results.append((f"shard-{index:03d}.json", json.loads(result.to_json())))
    return results


def assert_merge_identity(workload_dict, n_shards):
    single = single_run_json(workload_dict)
    merged = merge_result_dicts(shard_result_dicts(workload_dict, n_shards)).to_json()
    assert merged == single


# --------------------------------------------------------------------------- #
# Byte-identity
# --------------------------------------------------------------------------- #
class TestMergeIdentity:
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 4])
    def test_memory_single_filter(self, n_shards):
        assert_merge_identity(memory_workload(n_pairs=301), n_shards)

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_memory_cascade(self, n_shards):
        assert_merge_identity(memory_workload(cascade=True, verify=False), n_shards)

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_streaming_single_filter_multi_device(self, n_shards):
        assert_merge_identity(streaming_workload(n_devices=2), n_shards)

    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_streaming_cascade(self, n_shards):
        assert_merge_identity(
            streaming_workload(cascade=True, verify=False), n_shards
        )

    @pytest.mark.parametrize("mode", ["memory", "streaming"])
    def test_cascade_with_an_extinct_first_shard(self, mode):
        # Set 1 (seed 5) at threshold 3: GateKeeper-GPU rejects all of the
        # first four pairs, so shard 0 never reaches stage 1 while the other
        # shards do.  The merged stage rows must still be the single run's.
        execution = {"mode": mode, "verify": False}
        if mode == "streaming":
            execution["chunk_size"] = 4
        workload = {
            "input": {"kind": "dataset", "dataset": "Set 1", "n_pairs": 12, "seed": 5},
            "filter": {"filters": ["gatekeeper-gpu", "sneakysnake"], "error_threshold": 3},
            "execution": execution,
        }
        results = shard_result_dicts(workload, 3)
        first_shard_stages = results[0][1]["stages"]
        assert [(row["n_input"], row["n_accepted"]) for row in first_shard_stages] == [(4, 0)]
        assert any(len(data["stages"]) == 2 for _, data in results[1:])
        assert merge_result_dicts(results).to_json() == single_run_json(workload)

    def test_streaming_ragged_last_chunk(self):
        # 330 pairs at chunk_size 64 -> 6 chunks, last one partial.
        assert_merge_identity(streaming_workload(n_pairs=330), 3)

    def test_merged_result_has_no_shard_section(self):
        results = shard_result_dicts(memory_workload(), 2)
        assert all("shard" in data for _, data in results)
        merged = merge_result_dicts(results)
        assert merged.shard is None
        assert "shard" not in merged.as_dict()

    def test_shard_order_does_not_matter(self):
        workload = memory_workload()
        single = single_run_json(workload)
        results = shard_result_dicts(workload, 3)
        merged = merge_result_dicts(list(reversed(results))).to_json()
        assert merged == single


# --------------------------------------------------------------------------- #
# Robustness: every malformed input is a typed error naming file and field
# --------------------------------------------------------------------------- #
class TestMergeRobustness:
    def test_truncated_shard_json(self, tmp_path):
        results = shard_result_dicts(memory_workload(), 2)
        good = tmp_path / "shard-000.json"
        good.write_text(json.dumps(results[0][1]))
        bad = tmp_path / "shard-001.json"
        bad.write_text(json.dumps(results[1][1])[:40])  # truncated mid-object
        with pytest.raises(ShardFileError, match=r"shard-001\.json.*invalid JSON"):
            merge_files([good, bad])

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ShardFileError, match="cannot read"):
            load_shard_result(tmp_path / "absent.json")

    def test_non_shard_result(self):
        # A plain unsharded run's Result has no `shard` section.
        plain = json.loads(single_run_json(memory_workload()))
        with pytest.raises(ShardFileError, match=r"plain\.json.*missing 'shard'"):
            merge_result_dicts([("plain.json", plain)])

    def test_duplicate_shard_index(self):
        results = shard_result_dicts(memory_workload(), 2)
        doubled = results + [("copy.json", results[0][1])]
        with pytest.raises(
            ShardSetError, match=r"duplicate shard 0 \(shard-000\.json and copy\.json\)"
        ):
            merge_result_dicts(doubled)

    def test_missing_shard(self):
        results = shard_result_dicts(memory_workload(), 3)
        with pytest.raises(ShardSetError, match=r"missing 1 of 3.*\[1\]"):
            merge_result_dicts([results[0], results[2]])

    def test_missing_shard_named_via_manifest(self, tmp_path):
        workload = memory_workload()
        plan = plan_shards(workload, 3)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(plan.manifest()))
        paths = []
        for label, data in shard_result_dicts(workload, 3)[:2]:
            path = tmp_path / label
            path.write_text(json.dumps(data))
            paths.append(path)
        with pytest.raises(ShardSetError, match=r"out/shard-002\.json"):
            merge_files(paths, manifest=manifest)

    def test_schema_version_mismatch(self):
        results = shard_result_dicts(memory_workload(), 2)
        results[1][1]["schema_version"] = 99
        with pytest.raises(
            ShardMismatchError, match=r"shard-001\.json: schema_version 99"
        ):
            merge_result_dicts(results)

    def test_shards_with_different_filters(self):
        mixed = (
            shard_result_dicts(memory_workload(), 2)[:1]
            + shard_result_dicts(memory_workload(cascade=True), 2)[1:]
        )
        with pytest.raises(ShardMismatchError, match=r"workload\.filter"):
            merge_result_dicts(mixed)

    def test_shards_from_different_plans(self):
        mixed = (
            shard_result_dicts(memory_workload(), 2)[:1]
            + shard_result_dicts(memory_workload(), 3)[1:2]
        )
        with pytest.raises(ShardMismatchError, match="n_shards"):
            merge_result_dicts(mixed)

    def test_invalid_shard_section(self):
        results = shard_result_dicts(memory_workload(), 2)
        results[0][1]["shard"]["stop"] = results[0][1]["shard"]["start"]
        with pytest.raises(ShardFileError, match=r"shard-000\.json: invalid shard"):
            merge_result_dicts(results)

    def test_non_tiling_slices(self):
        results = shard_result_dicts(memory_workload(n_pairs=300), 3)
        results[1][1]["shard"]["start"] += 1  # open a 1-pair gap after shard 0
        results[1][1]["shard"]["stop"] += 1
        with pytest.raises(ShardSetError, match="must tile"):
            merge_result_dicts(results)

    def test_mapping_results_rejected(self):
        mapping = {
            "schema_version": 1, "kind": "mapping", "shard": {},
            "workload": {}, "summary": {},
        }
        with pytest.raises(ShardFileError, match="kind 'mapping'"):
            merge_result_dicts([("map.json", mapping)])

    def test_empty_merge(self):
        with pytest.raises(ShardSetError, match="no shard results"):
            merge_result_dicts([])
