"""The acceptance contract of the one-front-door redesign.

A golden-fixture workload executed via ``Session.run(Workload.from_toml(...))``,
via ``run_main`` and via the ``repro run`` dispatcher must print
**byte-identical** JSON reports carrying ``schema_version`` — the CLI is a
thin adapter over one Session, not a parallel implementation.
"""

import importlib
import json
from pathlib import Path

import pytest

from repro.api import SCHEMA_VERSION, Session, Workload
from repro.cli import _COMMANDS, main, run_main

DATA = Path(__file__).resolve().parent / "data"
FIXTURE = json.loads((DATA / "golden_expected.json").read_text())["fixture"]


def cli_stdout(capsys, entry, argv) -> str:
    assert entry(argv) == 0
    return capsys.readouterr().out


STREAM_TOML = f"""
[input]
kind = "reads"
path = "{DATA / 'golden_reads.fastq'}"
reference = "{DATA / 'golden_reference.fasta'}"

[filter]
filter = "sneakysnake"
error_threshold = {FIXTURE["error_threshold"]}

[execution]
mode = "streaming"
chunk_size = {FIXTURE["chunk_size"]}
"""

FILTER_TOML = """
[input]
kind = "dataset"
dataset = "Set 1"
n_pairs = 150
seed = 0

[filter]
filter = "shouji"
error_threshold = 4

[execution]
mode = "memory"
verify = false
"""

MAP_TOML = """
[input]
kind = "mapping"
n_reads = 30
read_length = 100
genome_length = 12000
seed = 0

[filter]
filter = "gatekeeper-gpu"
error_threshold = 5
"""

STREAM_CASCADE_TOML = f"""
[input]
kind = "reads"
path = "{DATA / 'golden_reads.fastq'}"
reference = "{DATA / 'golden_reference.fasta'}"

[filter]
cascade = ["gatekeeper-gpu", "sneakysnake"]

[execution]
mode = "streaming"
chunk_size = 64
n_devices = 2
"""

CASCADE_TOML = """
[input]
kind = "dataset"
dataset = "Set 1"
n_pairs = 200
seed = 0

[filter]
cascade = ["gatekeeper-gpu", "sneakysnake"]
error_threshold = 5

[execution]
mode = "memory"
verify = false
"""


class TestByteIdenticalFrontDoors:
    """Session API == `run_main` == `repro run`, byte for byte."""

    @pytest.mark.parametrize(
        ("label", "toml"),
        [
            ("stream", STREAM_TOML),
            ("filter", FILTER_TOML),
            ("map", MAP_TOML),
            ("cascade", CASCADE_TOML),
        ],
        ids=["stream", "filter", "map", "cascade"],
    )
    def test_all_front_doors_agree(self, tmp_path, capsys, label, toml):
        workload_path = tmp_path / f"{label}.toml"
        workload_path.write_text(toml)

        via_session = Session().run(Workload.from_toml(workload_path)).to_json()
        via_run = cli_stdout(capsys, run_main, [str(workload_path)])
        via_dispatcher = cli_stdout(capsys, main, ["run", str(workload_path)])

        assert via_session == via_run == via_dispatcher
        payload = json.loads(via_session)
        assert payload["schema_version"] == SCHEMA_VERSION

    def test_run_writes_out_file(self, tmp_path, capsys):
        workload_path = tmp_path / "w.toml"
        workload_path.write_text(FILTER_TOML)
        out_path = tmp_path / "report.json"
        stdout = cli_stdout(capsys, run_main, [str(workload_path), "--out", str(out_path)])
        assert out_path.read_text() == stdout

    def test_run_unwritable_out_is_a_clean_error(self, tmp_path, capsys):
        workload_path = tmp_path / "w.toml"
        workload_path.write_text(FILTER_TOML)
        with pytest.raises(SystemExit):
            run_main([str(workload_path), "--out", str(tmp_path / "no_dir" / "r.json")])
        captured = capsys.readouterr()
        assert "--out" in captured.err
        # The report still reached stdout before the --out failure.
        assert '"schema_version"' in captured.out

    def test_json_equals_toml_workload(self, tmp_path, capsys):
        """A .json workload file runs identically to its .toml equivalent."""
        toml_path = tmp_path / "w.toml"
        toml_path.write_text(STREAM_TOML)
        json_path = tmp_path / "w.json"
        json_path.write_text(Workload.from_toml(toml_path).to_json())
        assert cli_stdout(capsys, run_main, [str(toml_path)]) == cli_stdout(
            capsys, run_main, [str(json_path)]
        )


class TestOneFrontDoor:
    """Session is the only run driver; the engines stay usable directly."""

    def test_removed_drivers_are_gone(self):
        import repro
        import repro.runtime

        for module in (repro, repro.runtime):
            assert not hasattr(module, "StreamingPipeline")
        with pytest.raises(ModuleNotFoundError):
            import repro.core.pipeline  # noqa: F401

    def test_session_matches_engine_decisions(self):
        from repro.engine import FilterEngine
        from repro.simulate.datasets import build_dataset

        dataset = build_dataset("Set 1", n_pairs=150, seed=0)
        direct = FilterEngine("shouji", read_length=100, error_threshold=4).filter_encoded(
            dataset.encoded()
        )
        result = Session().run(Workload.from_toml(FILTER_TOML))
        assert result.summary["n_accepted"] == direct.n_accepted
        assert result.summary["n_rejected"] == direct.n_rejected


def table_titles(out: str) -> list[str]:
    """Each printed table's title: the line above its header and ``----`` rule."""
    lines = out.splitlines()
    return [lines[i - 2] for i, line in enumerate(lines) if line and set(line) <= {"-", " "}]


class TestRunTable:
    """`repro run --table` prints every section the Result carries."""

    @pytest.mark.parametrize(
        ("toml", "titles"),
        [
            (FILTER_TOML, ["Shouji on Set 1"]),
            (CASCADE_TOML, ["GateKeeper-GPU -> SneakySnake on Set 1", "Per-stage accounting"]),
            (
                STREAM_CASCADE_TOML,
                [
                    "GateKeeper-GPU -> SneakySnake on golden_reads.fastq",
                    "Per-stage accounting",
                    "Streaming execution",
                    "Per-chunk accounting",
                ],
            ),
            (MAP_TOML, ["Whole-genome mapping information"]),
        ],
        ids=["memory-filter", "memory-cascade", "streamed-cascade", "mapping"],
    )
    def test_table_titles(self, tmp_path, capsys, toml, titles):
        workload_path = tmp_path / "w.toml"
        workload_path.write_text(toml)
        out = cli_stdout(capsys, run_main, [str(workload_path), "--table"])
        assert table_titles(out) == titles


class TestDispatcher:
    @pytest.mark.parametrize("command", ["frobnicate", "filter"])
    def test_unknown_command(self, capsys, command):
        assert main([command]) == 2
        assert "unknown command" in capsys.readouterr().err

    def test_no_args_prints_usage_to_stderr(self, capsys):
        assert main([]) == 2
        assert (
            "usage: repro {run,plan,experiment,lint,serve,submit,shard,merge} ..."
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_every_command_target_imports(self, command):
        module_name, function_name = _COMMANDS[command][0].split(":")
        assert callable(getattr(importlib.import_module(module_name), function_name))

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_dispatches_to_experiment(self, capsys):
        assert main(["experiment", "occupancy"]) == 0
        assert "Reproduction of occupancy" in capsys.readouterr().out

    def test_run_rejects_bad_workload_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text("[input]\nkind = 'nope'\n")
        with pytest.raises(SystemExit):
            run_main([str(bad)])
        assert "workload.input.kind" in capsys.readouterr().err
