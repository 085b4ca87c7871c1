"""Figure S.12 (and Sup. Table S.16): filter time vs error threshold, CPU vs GPU."""

import pytest

from repro.analysis import experiments
from repro.engine import FilterEngine
from _bench_helpers import emit


@pytest.mark.parametrize("error_threshold", [0, 5, 10])
def test_real_kernel_vs_threshold(benchmark, dataset_250bp, error_threshold):
    """Wall clock of the vectorised kernel as the threshold grows (250 bp)."""
    gatekeeper = FilterEngine("gatekeeper-gpu", 250, error_threshold)
    result = benchmark(gatekeeper.filter_encoded, dataset_250bp.subset(500).encoded())
    assert result.n_pairs == 500


def test_reproduce_figS12(benchmark):
    """Regenerate the CPU-vs-GPU filter-time curves (modelled, 250 bp, 30 M pairs)."""
    rows = benchmark(experiments.error_threshold_filter_time_rows)
    emit("Figure S.12 — filter time (s) vs error threshold, 250 bp", rows)
    cpu = [r["Setup 1 12-core CPU_s"] for r in rows]
    gpu_dev = [r["Setup 1 device-enc GPU_s"] for r in rows]
    # The CPU filter time grows steeply with the threshold; the GPU stays flat.
    assert cpu[-1] / cpu[0] > 3.0
    assert gpu_dev[-1] / gpu_dev[0] < 1.3
    # At the largest threshold the GPU is faster even against 12 CPU cores.
    assert gpu_dev[-1] < cpu[-1]
