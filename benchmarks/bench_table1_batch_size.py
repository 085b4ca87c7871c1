"""Table 1: effect of the maximum number of reads processed per batch.

The benchmark times the real pipeline at two batch-size settings (same data,
different kernel-call counts) and the printed table reproduces Table 1's trend
at the paper's chromosome-1 scale with the analytic model.
"""

import pytest

from repro.analysis import experiments
from repro.engine import FilterEngine
from _bench_helpers import emit


@pytest.mark.parametrize("max_reads_per_batch", [100, 100_000])
def test_batch_size_effect_on_pipeline(benchmark, dataset_100bp, max_reads_per_batch):
    """Real pipeline wall clock with small vs large batches."""
    gatekeeper = FilterEngine(
        "gatekeeper-gpu", 100, 5, max_reads_per_batch=max_reads_per_batch
    )
    result = benchmark(gatekeeper.filter_encoded, dataset_100bp.encoded())
    expected_batches = -(-dataset_100bp.n_pairs // min(max_reads_per_batch, dataset_100bp.n_pairs))
    assert result.n_batches == expected_batches


def test_reproduce_table1(benchmark):
    """Regenerate Table 1 (modelled, mrFAST chromosome-1 workload)."""
    rows = benchmark(experiments.table1_batch_size_rows)
    emit("Table 1 — effect of max reads per batch (seconds, modelled)", rows)
    overall = {}
    for row in rows:
        overall.setdefault(row["encoding"], {})[row["max_reads_per_batch"]] = row["overall_s"]
    for encoding, per_batch in overall.items():
        # Larger batches -> fewer transfers -> lower overall time (paper Table 1).
        assert per_batch[100_000] < per_batch[1_000] < per_batch[100]
