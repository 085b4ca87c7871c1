"""Table 3 (and Sup. Tables S.24-S.26): whole-genome mapping with pre-alignment filtering.

Runs the actual mrFAST-like mapper on a simulated genome/read set with and
without GateKeeper-GPU, checks that no mapping is lost while most candidate
verifications are eliminated, and prints the Table 3-style rows.  Each run is
a ``kind = "mapping"`` workload on :class:`repro.api.Session`, whose
``Result.rows`` are the NoFilter row, then the filtered row.
"""

import pytest

from repro.api import Session, Workload
from _bench_helpers import emit


def mapping_rows(n_reads, genome_length, error_threshold, seed):
    """The Table 3 rows of one GateKeeper-GPU mapping workload (100 bp reads)."""
    workload = Workload.from_dict(
        {
            "input": {"kind": "mapping", "n_reads": n_reads, "read_length": 100,
                      "genome_length": genome_length, "seed": seed},
            "filter": {"filter": "gatekeeper-gpu", "error_threshold": error_threshold},
        }
    )
    return Session().run(workload).rows


@pytest.fixture(scope="module")
def whole_genome_rows():
    return mapping_rows(n_reads=200, genome_length=50_000, error_threshold=5, seed=33)


def test_whole_genome_mapping_with_filter(benchmark, whole_genome_rows):
    """Benchmark the filtered mapping run and reproduce the Table 3 rows."""

    def rerun():
        return mapping_rows(n_reads=60, genome_length=20_000, error_threshold=5, seed=34)

    benchmark.pedantic(rerun, rounds=1, iterations=1)

    rows = whole_genome_rows
    emit("Table 3 — whole-genome mapping information (scaled run)", rows)
    no_filter, filtered = rows
    assert filtered["mappings"] == no_filter["mappings"]
    assert filtered["mapped_reads"] == no_filter["mapped_reads"]
    assert filtered["verification_pairs"] < no_filter["verification_pairs"]
    # The paper reports 90-94% reduction on the real data; the scaled synthetic
    # genome produces a smaller but still dominant reduction.
    assert filtered["reduction_pct"] > 30.0


def test_exact_matching_threshold_zero(benchmark):
    """The e=0 row of Table 3: reduction is highest at exact matching."""
    rows = benchmark.pedantic(
        mapping_rows,
        kwargs=dict(n_reads=80, genome_length=20_000, error_threshold=0, seed=35),
        rounds=1,
        iterations=1,
    )
    emit("Table 3 — e = 0 (scaled run)", rows)
    assert rows[1]["mappings"] == rows[0]["mappings"]
    assert rows[1]["reduction_pct"] >= rows[0]["reduction_pct"]
