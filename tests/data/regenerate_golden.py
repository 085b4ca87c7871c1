"""Regenerate the golden streaming fixtures (run from the repo root).

    PYTHONPATH=src python tests/data/regenerate_golden.py

Produces, next to this script:

* ``golden_reads.fastq``     — 40 simulated 48 bp reads off the golden genome;
* ``golden_reference.fasta`` — the 1,500 bp genome (with one small N run);
* ``golden_expected.json``   — the expected streamed-run totals for two
  filters and one cascade, plus fig5-style false-accept rows, all computed
  from the checked-in files (not from the RNG), so refactors that change any
  decision or modelled time fail ``tests/test_streaming_golden.py``.

The runs go through the front door (a ``reads`` :class:`Workload` on a
:class:`Session`); :data:`GOLDEN_KEYS` maps each canonical
:class:`~repro.api.Result` onto the file's layout.  The FASTQ/FASTA files
are only rewritten when regenerating on purpose; the expected JSON is
recomputed from whatever files are on disk, so this script can also refresh
the expectations after an *intentional* behaviour change.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent

READ_LENGTH = 48
N_READS = 90
GENOME_LENGTH = 3_000
ERROR_THRESHOLD = 5
SEEDING_K = 12
CHUNK_SIZE = 32

#: Golden label -> the filter (or cascade) it runs.
FILTER_SPECS: dict[str, list[str]] = {
    "gatekeeper-gpu": ["gatekeeper-gpu"],
    "sneakysnake": ["sneakysnake"],
    "cascade:gatekeeper-gpu+sneakysnake": ["gatekeeper-gpu", "sneakysnake"],
}

#: golden_expected.json ``section -> key`` -> the dotted path of the same
#: value in the canonical Result JSON.
GOLDEN_KEYS: dict[str, dict[str, str]] = {
    "summary": {
        "dataset": "dataset",
        "error_threshold": "summary.error_threshold",
        "n_pairs": "summary.n_pairs",
        "verification_pairs": "summary.n_accepted",
        "rejected_pairs": "summary.n_rejected",
        "reduction_pct": "summary.reduction_pct",
        "kernel_time_s": "summary.kernel_time_s",
        "filter_time_s": "summary.filter_time_s",
        "verification_time_s": "summary.verification_time_s",
        "no_filter_verification_time_s": "summary.no_filter_verification_time_s",
        "verification_speedup": "summary.verification_speedup",
        "theoretical_speedup": "summary.theoretical_speedup",
    },
    "streaming": {
        "filter": "filter",
        "chunk_size": "streaming.chunk_size",
        "n_chunks": "streaming.n_chunks",
        "n_devices": "streaming.n_devices",
        "n_batches": "streaming.n_batches",
        "n_undefined": "summary.n_undefined",
        "verified_accepts": "summary.verified_accepts",
        "verified_rejects": "summary.verified_rejects",
        "serial_time_s": "streaming.serial_time_s",
        "overlapped_time_s": "streaming.overlapped_time_s",
        "overlap_speedup": "streaming.overlap_speedup",
    },
}


def golden_workload(label: str, collect_decisions: bool = False, **execution: Any) -> Any:
    """The streamed ``reads`` workload behind one golden label."""
    from repro.api import Workload

    return Workload.from_dict(
        {
            "input": {
                "kind": "reads",
                "path": str(HERE / "golden_reads.fastq"),
                "reference": str(HERE / "golden_reference.fasta"),
                "seeding_k": SEEDING_K,
                "name": "golden",
            },
            "filter": {"filters": FILTER_SPECS[label], "error_threshold": ERROR_THRESHOLD},
            "execution": {"mode": "streaming", "chunk_size": CHUNK_SIZE, **execution},
            "output": {"collect_decisions": collect_decisions},
        }
    )


def golden_layout(result: Any) -> dict[str, dict[str, Any]]:
    """A Result in the golden file's layout (through JSON, as the file stores it)."""
    payload = json.loads(result.to_json())

    def lookup(path: str) -> Any:
        value = payload
        for key in path.split("."):
            value = value[key]
        return value

    return {
        section: {key: lookup(path) for key, path in keys.items()}
        for section, keys in GOLDEN_KEYS.items()
    }


def write_input_files() -> None:
    from repro.genomics import Sequence, write_fasta, write_fastq
    from repro.simulate.genome import GenomeProfile, generate_reference
    from repro.simulate.reads import simulate_reads

    # A repetitive genome (segmental duplications + tandem repeats + one N
    # island) so seeding proposes several candidates per read and boundary /
    # undefined pairs occur, like a real candidate pool.
    profile = GenomeProfile(
        duplication_fraction=0.25,
        duplication_length=300,
        duplication_divergence=0.03,
        tandem_repeat_fraction=0.05,
        n_island_count=1,
        n_island_length=20,
    )
    reference = generate_reference(GENOME_LENGTH, profile=profile, seed=7)
    reads = simulate_reads(
        reference, n_reads=N_READS, read_length=READ_LENGTH, seed=11
    )
    write_fasta(HERE / "golden_reference.fasta", [Sequence(reference.name, reference.bases)])
    write_fastq(HERE / "golden_reads.fastq", reads)


def expected_from_files() -> dict:
    from repro.analysis import experiments
    from repro.api import Session
    from repro.genomics import decode_pairs
    from repro.runtime import load_reference, seeded_pairs
    from repro.simulate.pairs import PairDataset

    reference = load_reference(HERE / "golden_reference.fasta")
    pairs = list(
        decode_pairs(
            seeded_pairs(
                HERE / "golden_reads.fastq",
                reference,
                ERROR_THRESHOLD,
                k=SEEDING_K,
            )
        )
    )
    dataset = PairDataset(
        name="golden",
        reads=[p[0] for p in pairs],
        segments=[p[1] for p in pairs],
        read_length=READ_LENGTH,
    )

    with Session() as session:
        streaming = {
            label: golden_layout(session.run(golden_workload(label)))
            for label in FILTER_SPECS
        }

    fig5_rows = experiments.filter_comparison_rows(
        dataset, thresholds=(2, ERROR_THRESHOLD), max_pairs=None
    )
    return {
        "fixture": {
            "n_reads": N_READS,
            "read_length": READ_LENGTH,
            "reference_length": GENOME_LENGTH,
            "error_threshold": ERROR_THRESHOLD,
            "seeding_k": SEEDING_K,
            "chunk_size": CHUNK_SIZE,
            "n_pairs": dataset.n_pairs,
            "n_undefined": dataset.n_undefined,
        },
        "streaming": streaming,
        "fig5_rows": fig5_rows,
    }


def main() -> None:
    if not (HERE / "golden_reads.fastq").exists():
        write_input_files()
    expected = expected_from_files()
    out = HERE / "golden_expected.json"
    out.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} ({expected['fixture']['n_pairs']} pairs)")


if __name__ == "__main__":
    main()
