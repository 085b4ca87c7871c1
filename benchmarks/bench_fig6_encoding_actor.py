"""Figure 6 (and Figs S.13/S.14, Tables S.17-S.19): effect of the encoding actor."""

import numpy as np
import pytest

from repro.analysis import experiments
from repro.core import EncodingActor
from repro.engine import FilterEngine
from _bench_helpers import emit


@pytest.mark.parametrize("encoding", [EncodingActor.HOST, EncodingActor.DEVICE])
def test_encoding_actor_real_pipeline(benchmark, dataset_100bp, encoding):
    """Wall clock of the real pipeline with host vs device encoding."""
    gatekeeper = FilterEngine("gatekeeper-gpu", 100, 4, encoding=encoding)
    result = benchmark(gatekeeper.filter_encoded, dataset_100bp.encoded())
    assert result.n_pairs == dataset_100bp.n_pairs


@pytest.mark.parametrize("read_length", [100, 150, 250])
def test_reproduce_fig6(benchmark, read_length):
    """Regenerate the encoding-actor throughput curves (modelled, paper scale)."""
    rows = benchmark(
        experiments.encoding_actor_rows,
        read_length=read_length,
        thresholds=(0, 1, 2, 3, 4, 5, 6),
    )
    emit(f"Figure 6 — encoding actor vs throughput, {read_length} bp (M filtrations/s)", rows)
    setup1 = [r for r in rows if r["setup"] == "Setup 1"]
    # Host encoding always wins on kernel-time throughput, loses on filter time.
    assert all(r["host_kernel_mps"] > r["device_kernel_mps"] for r in setup1)
    assert all(r["host_filter_mps"] < r["device_filter_mps"] for r in setup1)
    # Kernel-time throughput decreases as the threshold grows; filter-time
    # throughput is nearly flat (the paper's key observation).
    kernel_series = [r["device_kernel_mps"] for r in setup1]
    assert kernel_series[0] >= kernel_series[-1]
    filter_series = [r["device_filter_mps"] for r in setup1]
    assert max(filter_series) <= min(filter_series) * 1.3
