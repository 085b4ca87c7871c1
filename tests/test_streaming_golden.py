"""Golden regression harness for streamed runs.

The FASTQ/FASTA fixture pair under ``tests/data/`` and the committed
``golden_expected.json`` pin the exact behaviour of a streamed ``reads``
workload on a real (checked-in) input: seeded candidate-pair counts,
per-filter totals (decisions *and* modelled times), fig5-style false-accept
rows, and the byte-identity between streaming and memory mode.  Any refactor
that silently changes a decision, a count or a modelled time fails here
first.

Regenerate the expectations after an intentional behaviour change with
``PYTHONPATH=src python tests/data/regenerate_golden.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import experiments
from repro.api import ExecutionSpec, InputSpec, OutputSpec, Session
from repro.genomics import decode_pairs
from repro.runtime import load_reference, seeded_pairs
from repro.simulate.pairs import PairDataset

DATA = Path(__file__).resolve().parent / "data"
sys.path.insert(0, str(DATA))

from regenerate_golden import FILTER_SPECS, golden_layout, golden_workload  # noqa: E402

GOLDEN = json.loads((DATA / "golden_expected.json").read_text())
FIXTURE = GOLDEN["fixture"]


@pytest.fixture(scope="module")
def session():
    with Session() as shared:
        yield shared


@pytest.fixture(scope="module")
def golden_dataset() -> PairDataset:
    """The candidate-pair pool seeded from the checked-in FASTQ + FASTA."""
    reference = load_reference(DATA / "golden_reference.fasta")
    pairs = list(
        decode_pairs(
            seeded_pairs(
                DATA / "golden_reads.fastq",
                reference,
                FIXTURE["error_threshold"],
                k=FIXTURE["seeding_k"],
            )
        )
    )
    return PairDataset(
        name="golden",
        reads=[p[0] for p in pairs],
        segments=[p[1] for p in pairs],
        read_length=FIXTURE["read_length"],
    )


def memory_run(session, golden_dataset, label):
    """The same pairs as one in-memory chunk, decision vectors kept."""
    streamed = golden_workload(label)
    return session.run(
        streamed.replace(
            input=InputSpec(
                kind="pairs",
                pairs=list(zip(golden_dataset.reads, golden_dataset.segments)),
                name="golden",
            ),
            execution=ExecutionSpec(mode="memory"),
            output=OutputSpec(collect_decisions=True),
        )
    )


class TestGoldenFixture:
    def test_seeded_pair_pool_matches_golden(self, golden_dataset):
        assert golden_dataset.n_pairs == FIXTURE["n_pairs"]
        assert golden_dataset.n_undefined == FIXTURE["n_undefined"]
        assert all(len(r) == FIXTURE["read_length"] for r in golden_dataset.reads)

    @pytest.mark.parametrize("label", sorted(FILTER_SPECS))
    def test_streamed_result_matches_golden(self, session, label):
        result = session.run(golden_workload(label))
        assert golden_layout(result) == GOLDEN["streaming"][label]

    def test_fig5_rows_match_golden(self, golden_dataset):
        rows = experiments.filter_comparison_rows(
            golden_dataset,
            thresholds=(2, FIXTURE["error_threshold"]),
            max_pairs=None,
        )
        assert json.loads(json.dumps(rows)) == GOLDEN["fig5_rows"]


class TestStreamingMemoryByteIdentity:
    """Streamed totals are JSON-equal to a memory-mode run of the fully
    materialised same pairs, for two filters and a cascade."""

    @pytest.mark.parametrize("label", sorted(FILTER_SPECS))
    def test_totals_byte_identical(self, session, golden_dataset, label):
        in_memory = memory_run(session, golden_dataset, label)
        streamed = session.run(golden_workload(label, collect_decisions=True))
        assert json.dumps(streamed.summary, sort_keys=True) == json.dumps(
            in_memory.summary, sort_keys=True
        )
        assert streamed.stages == in_memory.stages
        assert np.array_equal(streamed.raw.accepted, in_memory.raw.accepted)
        assert np.array_equal(streamed.raw.estimated_edits, in_memory.raw.estimated_edits)

    def test_bounded_memory_mode_keeps_no_vectors(self, session):
        result = session.run(golden_workload("gatekeeper-gpu"))
        assert result.raw.accepted is None
        assert result.raw.estimated_edits is None
        assert result.summary["n_pairs"] == FIXTURE["n_pairs"]
        assert (
            golden_layout(result)["summary"]
            == GOLDEN["streaming"]["gatekeeper-gpu"]["summary"]
        )

    def test_chunking_covers_all_pairs(self, session, golden_dataset):
        chunk = FIXTURE["chunk_size"]
        result = session.run(golden_workload("gatekeeper-gpu"))
        assert result.streaming["n_chunks"] == -(-golden_dataset.n_pairs // chunk)
        assert sum(c["n_pairs"] for c in result.chunks) == golden_dataset.n_pairs
        assert max(c["n_pairs"] for c in result.chunks) <= chunk


class TestGoldenExecutorInvariance:
    """The execution backend must never change a golden number: the exact
    same streamed totals (decisions, counts, modelled times) for
    ``{serial, threads, processes} x workers {1, 2, 4}``, prefetch on."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("kind", ["serial", "threads", "processes"])
    @pytest.mark.parametrize("label", sorted(FILTER_SPECS))
    def test_streamed_result_matches_golden_on_every_backend(
        self, session, label, kind, workers
    ):
        result = session.run(
            golden_workload(label, executor=kind, workers=workers, prefetch=True)
        )
        assert golden_layout(result) == GOLDEN["streaming"][label]


class TestStreamCli:
    """``repro run`` on the golden reads workload, end-to-end on the fixture."""

    def test_cli_json_totals_match_in_memory(self, session, golden_dataset, tmp_path, capsys):
        from repro.api import SCHEMA_VERSION
        from repro.cli import run_main

        workload = tmp_path / "golden.json"
        workload.write_text(golden_workload("sneakysnake").to_json())
        assert run_main([str(workload)]) == 0
        payload = json.loads(capsys.readouterr().out)
        # The CLI emits the canonical Result schema; its summary totals must
        # match a memory-mode run of the same pairs.
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["dataset"] == "golden_reads.fastq"  # named after the file
        in_memory = memory_run(session, golden_dataset, "sneakysnake")
        assert payload["summary"] == json.loads(in_memory.to_json())["summary"]


class TestExampleReadsWorkload:
    """``examples/workload_reads.toml``, the CI smoke run, reproduces the golden cascade."""

    def test_example_matches_golden_cascade(self, session, monkeypatch, capsys):
        from repro.api import Workload
        from repro.cli import run_main

        monkeypatch.chdir(DATA.parent.parent)  # its input paths are relative to the repo root
        example = "examples/workload_reads.toml"
        result = session.run(Workload.from_toml(example))
        assert golden_layout(result) == GOLDEN["streaming"]["cascade:gatekeeper-gpu+sneakysnake"]
        assert run_main([example, "--table"]) == 0
        assert "GateKeeper-GPU -> SneakySnake on golden" in capsys.readouterr().out
