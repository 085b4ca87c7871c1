"""Figure 8 (and Fig S.15, Tables S.21-S.23): multi-GPU scaling."""

import numpy as np
import pytest

from repro.analysis import experiments
from repro.engine import FilterEngine
from repro.gpusim import SETUP_1
from _bench_helpers import emit

CASES = [(100, 2), (150, 4), (250, 8)]


@pytest.mark.parametrize("n_devices", [1, 4, 8])
def test_multi_gpu_real_pipeline(benchmark, dataset_100bp, n_devices):
    """Wall clock and decision-stability of the pipeline across device counts."""
    gatekeeper = FilterEngine("gatekeeper-gpu", 100, 2, setup=SETUP_1, n_devices=n_devices)
    result = benchmark(gatekeeper.filter_encoded, dataset_100bp.encoded())
    reference = FilterEngine("gatekeeper-gpu", 100, 2).filter_encoded(dataset_100bp.encoded())
    assert np.array_equal(result.accepted, reference.accepted)


@pytest.mark.parametrize("read_length,error_threshold", CASES)
def test_reproduce_fig8(benchmark, read_length, error_threshold):
    """Regenerate the multi-GPU scaling rows (modelled, Setup 1, paper scale)."""
    rows = benchmark(
        experiments.multi_gpu_rows,
        read_length=read_length,
        error_threshold=error_threshold,
    )
    emit(
        f"Figure 8 — multi-GPU throughput, {read_length} bp, e = {error_threshold} (M filtrations/s)",
        rows,
    )
    host_kernel = [r["host_kernel_mps"] for r in rows]
    device_filter = [r["device_filter_mps"] for r in rows]
    # Monotone scaling with the device count.
    assert all(a <= b for a, b in zip(host_kernel, host_kernel[1:]))
    assert all(a <= b for a, b in zip(device_filter, device_filter[1:]))
    # Host-encoded kernel throughput scales close to linearly (paper: ~6.7x at 8 GPUs).
    assert host_kernel[-1] / host_kernel[0] > 5.0
    # Device-encoded kernel throughput scales sub-linearly (paper: ~4.9x at 8 GPUs).
    device_kernel = [r["device_kernel_mps"] for r in rows]
    assert device_kernel[-1] / device_kernel[0] < host_kernel[-1] / host_kernel[0]
