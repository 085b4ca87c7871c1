"""Figure 7 (and Sup. Table S.20): effect of the read length on filtering throughput."""

import pytest

from repro.analysis import experiments
from repro.engine import FilterEngine
from repro.simulate import build_dataset
from _bench_helpers import BENCH_PAIRS, emit


@pytest.mark.parametrize("dataset_name,read_length", [("Set 3", 100), ("Set 6", 150), ("Set 10", 250)])
def test_real_kernel_throughput_by_length(benchmark, dataset_name, read_length):
    """Wall clock of the vectorised kernel at each read length."""
    dataset = build_dataset(dataset_name, n_pairs=min(BENCH_PAIRS, 800), seed=read_length)
    gatekeeper = FilterEngine("gatekeeper-gpu", read_length, 4)
    result = benchmark(gatekeeper.filter_encoded, dataset.encoded())
    assert result.n_pairs == dataset.n_pairs


@pytest.mark.parametrize("error_threshold", [0, 4])
def test_reproduce_fig7(benchmark, error_threshold):
    """Regenerate the read-length vs throughput rows (modelled, paper scale)."""
    rows = benchmark(experiments.read_length_rows, error_threshold=error_threshold)
    emit(f"Figure 7 — read length vs filter-time throughput, e = {error_threshold}", rows)
    for setup in ("Setup 1", "Setup 2"):
        series = [r["device_filter_mps"] for r in rows if r["setup"] == setup]
        # Longer sequences filter at a lower rate (paper Figure 7).
        assert series == sorted(series, reverse=True)
