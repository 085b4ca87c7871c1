"""Workload spec: TOML/JSON round trips, validation messages, defaults."""

import json

import pytest

from repro.api import ExecutionSpec, FilterSpec, InputSpec, OutputSpec, Workload
from repro.api import defaults


DATASET_TOML = """
[input]
kind = "dataset"
dataset = "Set 1"
n_pairs = 500
seed = 7

[filter]
filter = "sneakysnake"
error_threshold = 4

[execution]
mode = "memory"
n_devices = 2
verify = false

[output]
include_chunks = false
"""


class TestRoundTrips:
    def test_toml_to_dict_round_trip(self):
        workload = Workload.from_toml(DATASET_TOML)
        assert workload.input.kind == "dataset"
        assert workload.input.dataset == "Set 1"
        assert workload.input.n_pairs == 500
        assert workload.filter.filters == ("sneakysnake",)
        assert workload.execution.n_devices == 2
        assert not workload.execution.verify
        # to_dict() -> from_dict() is the identity on the canonical form.
        rebuilt = Workload.from_dict(workload.to_dict())
        assert rebuilt.to_dict() == workload.to_dict()
        assert rebuilt.to_json() == workload.to_json()

    def test_json_round_trip(self):
        workload = Workload.from_toml(DATASET_TOML)
        again = Workload.from_json(workload.to_json())
        assert again.to_dict() == workload.to_dict()

    def test_from_file_dispatches_on_suffix(self, tmp_path):
        toml_path = tmp_path / "w.toml"
        toml_path.write_text(DATASET_TOML)
        json_path = tmp_path / "w.json"
        json_path.write_text(Workload.from_toml(DATASET_TOML).to_json())
        assert Workload.from_file(toml_path).to_dict() == Workload.from_file(
            json_path
        ).to_dict()

    def test_from_file_rejects_unknown_suffix(self, tmp_path):
        path = tmp_path / "w.yaml"
        path.write_text("{}")
        with pytest.raises(ValueError, match="unrecognised workload suffix"):
            Workload.from_file(path)

    def test_missing_toml_file_is_a_value_error(self):
        from pathlib import Path

        with pytest.raises(ValueError, match="not found"):
            Workload.from_toml("no/such/workload.toml")
        # Same contract whether the caller passes str or Path.
        with pytest.raises(ValueError, match="not found"):
            Workload.from_toml(Path("no/such/workload.toml"))
        with pytest.raises(ValueError, match="not found"):
            Workload.from_file(Path("no/such/workload.json"))
        # A suffixless mistyped path is reported as a missing file, not as
        # unparseable inline content.
        with pytest.raises(ValueError, match="not found"):
            Workload.from_toml("configs/prod")

    def test_cascade_aliases(self):
        via_cascade = Workload.from_dict(
            {
                "input": {"kind": "dataset", "dataset": "Set 1"},
                "filter": {"cascade": ["gatekeeper-gpu", "sneakysnake"]},
            }
        )
        via_filters = Workload.from_dict(
            {
                "input": {"kind": "dataset", "dataset": "Set 1"},
                "filter": {"filters": ["gatekeeper-gpu", "sneakysnake"]},
            }
        )
        assert via_cascade.to_dict() == via_filters.to_dict()
        assert via_cascade.filter.is_cascade

    def test_to_dict_records_only_applying_knobs(self):
        memory = Workload.from_dict(
            {
                "input": {"kind": "dataset", "dataset": "Set 1"},
                "execution": {"chunk_size": 777},
            }
        )
        assert "chunk_size" not in memory.to_dict()["execution"]
        streaming = Workload.from_dict(
            {
                "input": {"kind": "tsv", "path": "p.tsv"},
                "execution": {"chunk_size": 777},
            }
        )
        assert streaming.to_dict()["execution"]["chunk_size"] == 777
        mapping = Workload.from_dict({"input": {"kind": "mapping"}})
        execution = mapping.to_dict()["execution"]
        for inapplicable in ("chunk_size", "batch_size", "verify"):
            assert inapplicable not in execution
        # Canonicalisation is idempotent for every serialisable kind.
        for workload in (memory, streaming, mapping):
            assert Workload.from_dict(workload.to_dict()).to_dict() == workload.to_dict()

    def test_mapping_rejects_streaming_mode_and_cascades(self):
        with pytest.raises(ValueError, match="workload.execution.mode"):
            Workload.from_dict(
                {
                    "input": {"kind": "mapping"},
                    "execution": {"mode": "streaming"},
                }
            )
        with pytest.raises(ValueError, match="workload.filter.filters"):
            Workload.from_dict(
                {
                    "input": {"kind": "mapping"},
                    "filter": {"cascade": ["gatekeeper-gpu", "sneakysnake"]},
                }
            )

    def test_auto_mode_resolution(self):
        memory = Workload.from_dict({"input": {"kind": "dataset", "dataset": "Set 1"}})
        assert memory.resolved_mode() == "memory"
        streaming = Workload.from_dict(
            {"input": {"kind": "tsv", "path": "pairs.tsv"}}
        )
        assert streaming.resolved_mode() == "streaming"
        # The canonical dict records the *resolved* mode.
        assert streaming.to_dict()["execution"]["mode"] == "streaming"


class TestValidationMessages:
    """Bad input raises ValueError naming the offending field."""

    @pytest.mark.parametrize(
        ("data", "fieldpath"),
        [
            ({"input": {"kind": "nope"}}, "workload.input.kind"),
            ({"input": {"kind": "dataset"}}, "workload.input.dataset"),
            (
                {"input": {"kind": "dataset", "dataset": "Set 99"}},
                "workload.input.dataset",
            ),
            ({"input": {"kind": "reads", "path": "r.fastq"}}, "workload.input.reference"),
            (
                {
                    "input": {"kind": "reads", "path": "r.fastq", "reference": "g.fa",
                              "seeding_k": 33},
                },
                "workload.input.seeding_k",
            ),
            ({"input": {"kind": "tsv"}}, "workload.input.path"),
            ({"input": {"kind": "pairs"}}, "workload.input.pairs"),
            (
                {"input": {"kind": "dataset", "dataset": "Set 1", "typo_key": 1}},
                "workload.input: unknown key 'typo_key'",
            ),
            (
                {
                    "input": {"kind": "dataset", "dataset": "Set 1"},
                    "filter": {"filter": "shoji"},
                },
                "workload.filter.filters",
            ),
            (
                {
                    "input": {"kind": "dataset", "dataset": "Set 1"},
                    "filter": {"error_threshold": -1},
                },
                "workload.filter.error_threshold",
            ),
            (
                {
                    "input": {"kind": "dataset", "dataset": "Set 1"},
                    "execution": {"mode": "warp"},
                },
                "workload.execution.mode",
            ),
            (
                {
                    "input": {"kind": "dataset", "dataset": "Set 1"},
                    "execution": {"chunk_size": 0},
                },
                "workload.execution.chunk_size",
            ),
            (
                {
                    "input": {"kind": "dataset", "dataset": "Set 1"},
                    "execution": {"chunk_size": "big"},
                },
                "workload.execution.chunk_size",
            ),
            (
                {
                    "input": {"kind": "dataset", "dataset": "Set 1"},
                    "output": {"max_chunk_rows": -1},
                },
                "workload.output.max_chunk_rows",
            ),
            (
                {"input": {"kind": "dataset", "dataset": "Set 1"}, "outputs": {}},
                "unknown section",
            ),
            ({}, "workload.input"),
            (
                {"input": {"kind": "pairs", "pairs": [("ACGT", "ACGT"), ("ACGTA", "ACGTA")]}},
                "workload.input.pairs[1]: pair is 5 bp but input.pairs[0] is 4 bp",
            ),
            (
                {"input": {"kind": "pairs", "pairs": [("ACGT", "ACGT"), ("ACGT", "ACG")]}},
                "workload.input.pairs[1]: read is 4 bp but its segment is 3 bp",
            ),
            (
                {"input": {"kind": "pairs", "pairs": [("ACGT", "ACGT"), ("ACGT",)]}},
                "workload.input.pairs[1]: expected a (read, segment) pair of strings",
            ),
        ],
    )
    def test_error_names_field(self, data, fieldpath):
        with pytest.raises(ValueError) as excinfo:
            Workload.from_dict(data)
        assert fieldpath in str(excinfo.value)

    def test_invalid_toml_reports_source(self):
        with pytest.raises(ValueError, match="invalid TOML"):
            Workload.from_toml("[input\nkind=")

    def test_invalid_json_reports_source(self):
        with pytest.raises(ValueError, match="invalid JSON"):
            Workload.from_json("{not json")

    def test_boolean_fields_reject_non_booleans(self):
        with pytest.raises(ValueError, match="workload.execution.verify"):
            Workload.from_dict(
                {
                    "input": {"kind": "dataset", "dataset": "Set 1"},
                    "execution": {"verify": "yes"},
                }
            )


class TestDefaultsSingleSource:
    """repro.api.defaults is the one source of truth for package defaults."""

    def test_spec_defaults_come_from_api_defaults(self):
        assert FilterSpec().error_threshold == defaults.DEFAULT_ERROR_THRESHOLD
        assert ExecutionSpec().chunk_size == defaults.DEFAULT_CHUNK_SIZE
        assert ExecutionSpec().batch_size == defaults.DEFAULT_BATCH_SIZE
        spec = InputSpec(kind="dataset", dataset="Set 1")
        assert spec.n_pairs == defaults.DEFAULT_N_PAIRS
        assert spec.seeding_k == defaults.DEFAULT_SEEDING_K

    def test_system_configuration_batch_default_matches(self):
        from repro.core.config import SystemConfiguration

        config = SystemConfiguration(read_length=100, error_threshold=5)
        assert config.max_reads_per_batch == defaults.DEFAULT_BATCH_SIZE

    def test_quiet_reexports_do_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.simulate import DEFAULT_N_PAIRS  # noqa: F401
            from repro.api.defaults import VERIFICATION_COST_PER_PAIR_S  # noqa: F401


class TestOutputSpec:
    def test_defaults(self):
        output = OutputSpec()
        assert output.include_chunks
        assert output.max_chunk_rows == 50
