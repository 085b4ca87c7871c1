"""Whole-genome style mapping with and without pre-alignment filtering (Table 3).

Run with::

    python examples/whole_genome_mapping.py

The example simulates a small reference genome with repeat structure and a
Mason-like read set, maps the reads with the mrFAST-like mapper twice (without
any filter and with GateKeeper-GPU), writes the filtered run's mappings to a
SAM file and prints the mapping-information comparison: identical mappings,
far fewer verifications.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.analysis import format_table
from repro.engine import FilterEngine
from repro.mapper import MrFastMapper, write_sam
from repro.simulate import GenomeProfile, MutationProfile, generate_reference, simulate_reads


def main() -> None:
    read_length = 100
    error_threshold = 5

    # 1. Synthetic reference with segmental duplications (so seeds are ambiguous).
    reference = generate_reference(
        60_000,
        seed=11,
        profile=GenomeProfile(duplication_fraction=0.12, duplication_length=400),
    )
    reads = simulate_reads(
        reference,
        300,
        read_length,
        profile=MutationProfile(substitution_rate=0.01, insertion_rate=0.001, deletion_rate=0.001),
        seed=12,
    )
    print(f"Reference: {len(reference):,} bp; reads: {len(reads)} x {read_length} bp")

    # 2. Map without a pre-alignment filter.
    plain = MrFastMapper(reference, error_threshold, k=8)
    no_filter = plain.map_reads(reads)

    # 3. Map with GateKeeper-GPU plugged in before verification.
    gatekeeper = FilterEngine(
        "gatekeeper-gpu", read_length=read_length, error_threshold=error_threshold
    )
    filtered_mapper = MrFastMapper(reference, error_threshold, k=8, prefilter=gatekeeper)
    filtered = filtered_mapper.map_reads(reads)

    rows = [no_filter.summary(), filtered.summary()]
    print()
    print(format_table(
        rows,
        columns=["filter", "mappings", "mapped_reads", "candidate_pairs",
                 "verification_pairs", "rejected_pairs", "reduction_pct",
                 "verification_s", "filter_kernel_s"],
        title="Mapping information with and without pre-alignment filtering",
    ))

    # 4. Write the filtered run's mappings as SAM.
    out = Path(tempfile.gettempdir()) / "gatekeeper_gpu_mappings.sam"
    count = write_sam(out, filtered.records, reference.name, len(reference))
    print()
    print(f"Wrote {count} mappings to {out}")
    assert filtered.stats.mappings == no_filter.stats.mappings, "filtering must not lose mappings"
    print("Filtering removed "
          f"{100 * filtered.stats.reduction:.1f}% of candidate verifications without losing a single mapping.")


if __name__ == "__main__":
    main()
