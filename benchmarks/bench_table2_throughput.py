"""Table 2 (and Sup. Tables S.13-S.15): filtering throughput, CPU vs GPU.

The pytest-benchmark measurement times the vectorised GateKeeper-GPU batch
kernel (the functional equivalent of one kernel call) and the scalar
GateKeeper-CPU loop on the same pairs; the printed table reports the analytic
model's reproduction of Table 2 at the paper's 30 M-pair scale.
"""

import pytest

from repro.analysis import experiments
from repro.engine import FilterEngine
from repro.filters import GateKeeperGPUFilter
from _bench_helpers import emit

THRESHOLDS = {100: (2, 5), 150: (4, 10), 250: (6, 10)}


@pytest.mark.parametrize("threshold", THRESHOLDS[100])
def test_gpu_batch_kernel_100bp(benchmark, dataset_100bp, threshold):
    """Wall-clock throughput of the vectorised kernel on the 100 bp pool."""
    gatekeeper = FilterEngine("gatekeeper-gpu", 100, threshold)
    result = benchmark(gatekeeper.filter_encoded, dataset_100bp.encoded())
    assert result.n_pairs == dataset_100bp.n_pairs


@pytest.mark.parametrize("threshold", THRESHOLDS[100])
def test_cpu_scalar_filter_100bp(benchmark, dataset_100bp, threshold):
    """Wall-clock throughput of the scalar (CPU baseline) filter on a slice."""
    scalar = GateKeeperGPUFilter(threshold)
    reads = dataset_100bp.reads[:100]
    segments = dataset_100bp.segments[:100]

    def run():
        return sum(scalar.filter_pair(r, s).accepted for r, s in zip(reads, segments))

    benchmark(run)


@pytest.mark.parametrize("read_length", [100, 150, 250])
def test_reproduce_table2(benchmark, read_length):
    """Regenerate the Table 2 rows (analytic model, paper scale)."""
    rows = benchmark(
        experiments.table2_throughput_rows,
        read_length=read_length,
        thresholds=THRESHOLDS[read_length],
    )
    emit(f"Table 2 — filtering throughput, {read_length} bp (billions of pairs / 40 min)", rows)
    by_config = {(r["setup"], r["configuration"], r["error_threshold"]): r for r in rows}
    # GPU kernel-time throughput dominates the 12-core CPU (paper: up to 456x).
    key_gpu = ("Setup 1", "GPU-1dev-host-enc", THRESHOLDS[read_length][0])
    key_cpu = ("Setup 1", "CPU-12core", THRESHOLDS[read_length][0])
    assert by_config[key_gpu]["kernel_b40"] > 10 * by_config[key_cpu]["kernel_b40"]
