"""Session semantics: resident state reuse, result schema, mode equivalence."""

import json
import re
import threading
from pathlib import Path

import pytest

from repro.api import SCHEMA_VERSION, InputSpec, Session, Workload
from repro.genomics.fastq import read_fastq

DATA = Path(__file__).resolve().parent / "data"
GOLDEN_FIXTURE = json.loads((DATA / "golden_expected.json").read_text())["fixture"]


def dataset_workload(**overrides):
    data = {
        "input": {"kind": "dataset", "dataset": "Set 1", "n_pairs": 300, "seed": 3},
        "filter": {"filter": "sneakysnake", "error_threshold": 5},
    }
    data.update(overrides)
    return Workload.from_dict(data)


def reads_workload(**filter_section):
    return Workload.from_dict(
        {
            "input": {
                "kind": "reads",
                "path": str(DATA / "golden_reads.fastq"),
                "reference": str(DATA / "golden_reference.fasta"),
            },
            "filter": filter_section
            or {"filter": "sneakysnake", "error_threshold": GOLDEN_FIXTURE["error_threshold"]},
            "execution": {"chunk_size": 64},
        }
    )


class TestSessionReuse:
    """Two workloads on one session == two fresh sessions."""

    def test_memory_run_is_pure_across_reuse(self):
        workload = dataset_workload()
        session = Session()
        first = session.run(workload).to_json()
        second = session.run(workload).to_json()
        fresh = Session().run(workload).to_json()
        assert first == second == fresh

    def test_streaming_run_is_pure_across_reuse(self):
        workload = reads_workload()
        session = Session()
        first = session.run(workload).to_json()
        second = session.run(workload).to_json()
        fresh = Session().run(workload).to_json()
        assert first == second == fresh

    def test_two_different_workloads_match_two_fresh_sessions(self):
        memory = dataset_workload()
        streaming = reads_workload()
        shared = Session()
        shared_results = [shared.run(memory).to_json(), shared.run(streaming).to_json()]
        fresh_results = [
            Session().run(memory).to_json(),
            Session().run(streaming).to_json(),
        ]
        assert shared_results == fresh_results

    def test_constructed_state_is_cached_and_reused(self):
        workload = reads_workload()
        session = Session()
        session.run(workload)
        info = session.cache_info
        assert info == {
            "engines": 1,
            "datasets": 0,
            "mapping_inputs": 0,
            "references": 1,
            "indexes": 1,
            "executors": 0,
            "plans": 0,
        }
        engine = session.engine_for(
            workload, GOLDEN_FIXTURE["read_length"]
        )
        session.run(workload)
        assert session.cache_info == info
        assert session.engine_for(workload, GOLDEN_FIXTURE["read_length"]) is engine

    def test_second_mapping_run_simulates_and_indexes_nothing(self, monkeypatch):
        import repro.simulate.genome as genome
        import repro.simulate.reads as reads
        from repro.mapper import KmerIndex

        calls = {"reference": 0, "reads": 0, "index": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            genome, "generate_reference", counted("reference", genome.generate_reference)
        )
        monkeypatch.setattr(reads, "simulate_reads", counted("reads", reads.simulate_reads))
        monkeypatch.setattr(KmerIndex, "__init__", counted("index", KmerIndex.__init__))
        workload = Workload.from_dict(
            {"input": {"kind": "mapping", "n_reads": 20, "genome_length": 8_000}}
        )
        session = Session()
        first = session.run(workload).to_json()
        # The unfiltered and the filtered mapper share one index.
        assert calls == {"reference": 1, "reads": 1, "index": 1}
        assert session.run(workload).to_json() == first
        assert calls == {"reference": 1, "reads": 1, "index": 1}
        assert session.cache_info["mapping_inputs"] == 1

    def test_dataset_and_encoded_batch_are_built_once(self):
        workload = dataset_workload()
        session = Session()
        session.run(workload)
        dataset = session.dataset_for(workload)
        assert session.dataset_for(workload) is dataset
        # The encode-once batch is cached on the dataset the session holds.
        assert dataset.encoded() is dataset.encoded()

    def test_run_all(self):
        session = Session()
        results = session.run_all([dataset_workload(), reads_workload()])
        assert [r.kind for r in results] == ["filter", "filter"]


class TestFailedRun:
    """A run that fails mid-stream leaves the session as a fresh one."""

    def test_bad_fastq_record_with_prefetch(self, tmp_path):
        reads = [read.bases for read in read_fastq(DATA / "golden_reads.fastq")] * 5
        bad_record = 150

        def streamed(path, bad=None):
            """Write ``reads`` to ``path``; record ``bad`` loses its '+' line."""
            records = []
            for number, bases in enumerate(reads, start=1):
                plus = "" if number == bad else "+\n"
                records.append(f"@r{number}\n{bases}\n{plus}{'I' * len(bases)}\n")
            path.write_text("".join(records))
            return Workload.from_dict({
                "input": {"kind": "reads", "path": str(path),
                          "reference": str(DATA / "golden_reference.fasta")},
                "filter": {"filter": "gatekeeper-gpu",
                           "error_threshold": GOLDEN_FIXTURE["error_threshold"]},
                "execution": {"mode": "streaming", "chunk_size": 16, "prefetch": True},
            })

        good = streamed(tmp_path / "good.fastq")
        bad_path = tmp_path / "bad.fastq"
        bad = streamed(bad_path, bad=bad_record)
        session = Session()
        # The bad record lies past the first chunk boundary.
        assert len(session.probe_pairs(bad, 17)) == 17
        with pytest.raises(ValueError, match=re.escape(f"{bad_path}: FASTQ record {bad_record}")):
            session.run(bad)
        assert not [t for t in threading.enumerate() if t.name == "repro-prefetch"]
        assert session.run(good).to_json() == Session().run(good).to_json()


class TestResultSchema:
    def test_schema_version_and_sections(self):
        result = Session().run(dataset_workload())
        payload = result.as_dict()
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["kind"] == "filter"
        assert payload["workload"]["input"]["kind"] == "dataset"
        assert payload["streaming"] is None
        for key in (
            "n_pairs",
            "n_accepted",
            "n_rejected",
            "n_undefined",
            "reduction_pct",
            "kernel_time_s",
            "filter_time_s",
            "verification_speedup",
        ):
            assert key in payload["summary"], key
        # No pre-schema spellings in the canonical summary.
        assert not {"verification_pairs", "rejected_pairs"} & set(payload["summary"])

    def test_to_json_is_deterministic_and_strict(self):
        result = Session().run(dataset_workload())
        payload = json.loads(result.to_json())
        json.dumps(payload, allow_nan=False)  # strict RFC-8259

    def test_streaming_sections(self):
        result = Session().run(reads_workload())
        assert result.streaming is not None
        assert result.streaming["chunk_size"] == 64
        assert result.streaming["n_chunks"] >= 1
        assert result.chunks, "include_chunks defaults to True"
        assert result.raw is not None  # programmatic access to StreamingReport
        assert "raw" not in result.as_dict()

    def test_cascade_stage_accounting_in_both_modes(self):
        cascade = {"cascade": ["gatekeeper-gpu", "sneakysnake"], "error_threshold": 3}
        memory = Session().run(
            dataset_workload(filter=cascade)
        )
        assert [s["stage"] for s in memory.stages] == [0, 1]
        assert memory.stages[0]["filter"] == "GateKeeper-GPU"
        streamed = Session().run(reads_workload(**cascade))
        assert [s["filter"] for s in streamed.stages] == ["GateKeeper-GPU", "SneakySnake"]
        # Stage 0 sees every pair; stage 1 only the survivors.
        assert streamed.stages[0]["n_input"] >= streamed.stages[1]["n_input"]
        # One schema: stage rows carry the same keys in both modes.
        assert set(memory.stages[0]) == set(streamed.stages[0])

    def test_cascade_stage_rows_identical_across_modes(self):
        """Same cascade workload, memory vs streaming: stage rows are equal."""
        base = {"kind": "dataset", "dataset": "Set 1", "n_pairs": 211, "seed": 5}
        cascade = {"cascade": ["gatekeeper-gpu", "sneakysnake"], "error_threshold": 5}
        memory = Session().run(
            Workload.from_dict(
                {"input": base, "filter": cascade, "execution": {"mode": "memory"}}
            )
        )
        streamed = Session().run(
            Workload.from_dict(
                {
                    "input": base,
                    "filter": cascade,
                    "execution": {"mode": "streaming", "chunk_size": 64},
                }
            )
        )
        assert json.dumps(memory.stages, sort_keys=True) == json.dumps(
            streamed.stages, sort_keys=True
        )

    def test_memory_and_streaming_summaries_agree(self):
        """The mode is an execution detail: totals are JSON-equal either way."""
        base = {"kind": "dataset", "dataset": "Set 1", "n_pairs": 257, "seed": 11}
        memory = Session().run(
            Workload.from_dict(
                {"input": base, "execution": {"mode": "memory"}}
            )
        )
        streaming = Session().run(
            Workload.from_dict(
                {"input": base, "execution": {"mode": "streaming", "chunk_size": 100}}
            )
        )
        assert json.dumps(memory.summary, sort_keys=True) == json.dumps(
            streaming.summary, sort_keys=True
        )

    def test_mapping_without_prefilter(self):
        base = {"kind": "mapping", "n_reads": 20, "genome_length": 8_000}
        unfiltered = Session().run(
            Workload.from_dict({"input": dict(base, prefilter=False)})
        )
        assert unfiltered.filter == "NoFilter"
        assert len(unfiltered.rows) == 1
        assert unfiltered.rows[0]["mrFAST with"] == "NoFilter"
        assert unfiltered.summary["n_rejected"] == 0
        assert unfiltered.workload["input"]["prefilter"] is False
        assert unfiltered.kernel_tier is None  # no filter kernel ran

    def test_filtered_mapping_reports_the_engine_kernel_tier(self):
        workload = Workload.from_dict(
            {
                "input": {"kind": "mapping", "n_reads": 20, "genome_length": 8_000},
                "execution": {"kernel_tier": "numpy"},
            }
        )
        session = Session()
        result = session.run(workload)
        engine = session.engine_for(workload, workload.input.read_length)
        assert result.kernel_tier == engine.active_kernel_tier == "numpy"

    def test_tsv_input_rejects_read_files_with_actionable_error(self):
        workload = Workload.from_dict(
            {"input": {"kind": "tsv", "path": str(DATA / "golden_reads.fastq")}}
        )
        with pytest.raises(ValueError, match="pass a\\s+reference FASTA"):
            Session().run(workload)

    def test_mapping_workload(self):
        result = Session().run(
            Workload.from_dict(
                {
                    "input": {
                        "kind": "mapping",
                        "n_reads": 30,
                        "genome_length": 12_000,
                    }
                }
            )
        )
        assert result.kind == "mapping"
        assert len(result.rows) == 2
        assert result.rows[0]["mrFAST with"] == "NoFilter"
        assert result.as_dict()["rows"] == result.rows

    def test_run_accepts_workload_file_paths(self, tmp_path):
        toml_path = tmp_path / "w.toml"
        toml_path.write_text(
            '[input]\nkind = "dataset"\ndataset = "Set 1"\nn_pairs = 50\n'
        )
        session = Session()
        from_path = session.run(toml_path)  # pathlib.Path
        from_str = session.run(str(toml_path))
        assert from_path.to_json() == from_str.to_json()

    def test_empty_streaming_input_reports_configured_devices(self, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        result = Session().run(
            Workload.from_dict(
                {
                    "input": {"kind": "tsv", "path": str(empty)},
                    "execution": {"n_devices": 4},
                }
            )
        )
        assert result.summary["n_pairs"] == 0
        assert result.streaming["n_devices"] == 4

    def test_mapping_applies_device_count(self):
        base = {"kind": "mapping", "n_reads": 20, "genome_length": 8_000}
        one = Session().run(Workload.from_dict({"input": base}))
        two = Session().run(
            Workload.from_dict({"input": base, "execution": {"n_devices": 2}})
        )
        # Decisions are device-count invariant; the recorded config differs.
        assert one.rows == two.rows
        assert one.workload["execution"]["n_devices"] == 1
        assert two.workload["execution"]["n_devices"] == 2

    def test_memory_mode_rejects_file_inputs_at_construction(self):
        # Guaranteed-to-fail workloads are rejected when built, not when run,
        # so a queueing service can validate jobs up front.
        with pytest.raises(ValueError, match="workload.execution.mode"):
            Workload.from_dict(
                {
                    "input": {"kind": "tsv", "path": "pairs.tsv"},
                    "execution": {"mode": "memory"},
                }
            )

    def test_raw_is_one_report_type_in_both_modes(self):
        memory = Session().run(dataset_workload())
        streamed = Session().run(reads_workload())
        assert type(memory.raw) is type(streamed.raw)
        # Per-pair vectors only with output.collect_decisions, in either mode.
        assert memory.raw.accepted is None

    def test_collect_decisions_exposes_per_pair_vectors(self):
        workload = reads_workload()
        off = Session().run(workload)
        assert off.raw.accepted is None  # O(chunk) by default
        on = Session().run(
            workload.replace(
                output=workload.output.__class__(collect_decisions=True)
            )
        )
        assert on.raw.accepted is not None
        assert len(on.raw.accepted) == on.summary["n_pairs"]
        assert int(on.raw.accepted.sum()) == on.summary["n_accepted"]

    def test_pairs_input(self):
        pairs = [("ACGTACGT", "ACGTACGT"), ("ACGTACGT", "TTTTTTTT")]
        workload = Workload(input=InputSpec(kind="pairs", pairs=pairs, name="inline"))
        result = Session().run(workload)
        assert result.dataset == "inline"
        assert result.summary["n_pairs"] == 2
        # In-memory pairs serialise as their count, not their contents.
        assert result.workload["input"] == {"kind": "pairs", "name": "inline", "n_pairs": 2}

