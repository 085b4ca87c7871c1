"""Tests for the experiment drivers that regenerate the paper's tables and figures."""

import numpy as np
import pytest

from repro.analysis import experiments
from repro.api import Session, Workload
from repro.gpusim import SETUP_1
from repro.simulate import build_dataset


@pytest.fixture(scope="module")
def small_dataset():
    return build_dataset("Set 3", n_pairs=250, seed=2)


class TestAccuracyExperiments:
    def test_false_accept_rows_structure_and_trends(self, small_dataset):
        rows = experiments.false_accept_rows(small_dataset, thresholds=[0, 2, 5, 10])
        assert len(rows) == 4
        assert rows[0]["error_threshold"] == 0
        # No false rejects at any threshold (the headline claim).
        assert all(r["false_rejects"] == 0 for r in rows)
        # False accepts grow with the threshold; true reject rate shrinks.
        fa = [r["false_accepts"] for r in rows]
        assert fa == sorted(fa)
        assert rows[0]["true_reject_rate_pct"] >= rows[-1]["true_reject_rate_pct"]
        # Exact matching is essentially clean (paper: 0 false accepts at e=0).
        assert rows[0]["false_accepts"] <= 2

    def test_filter_comparison_rows_ordering(self, small_dataset):
        rows = experiments.filter_comparison_rows(
            small_dataset,
            thresholds=[2, 5],
            filter_names=["GateKeeper-GPU", "GateKeeper", "SneakySnake"],
            max_pairs=120,
        )
        assert len(rows) == 2
        for row in rows:
            # GateKeeper-GPU never has more false accepts than GateKeeper, and
            # SneakySnake is the most accurate of the three (paper Figure 5).
            assert row["GateKeeper-GPU_FA"] <= row["GateKeeper_FA"]
            assert row["SneakySnake_FA"] <= row["GateKeeper-GPU_FA"]
            assert row["GateKeeper-GPU_FR"] == 0
            assert row["SneakySnake_FR"] == 0

    def test_ground_truth_for_dataset(self, small_dataset):
        distances, undefined = experiments.ground_truth_for_dataset(small_dataset)
        assert distances.shape == (250,)
        assert undefined.shape == (250,)
        assert distances.min() >= 0


class TestTimingExperiments:
    def test_table1_rows_batch_trend(self):
        rows = experiments.table1_batch_size_rows(batch_sizes=(100, 100_000))
        assert len(rows) == 4  # two batch sizes x two encoders
        small = [r for r in rows if r["max_reads_per_batch"] == 100]
        large = [r for r in rows if r["max_reads_per_batch"] == 100_000]
        # Larger batches means fewer kernel calls and a shorter overall time.
        assert all(l["overall_s"] < s["overall_s"] for s, l in zip(small, large))

    def test_table2_rows_gpu_beats_cpu(self):
        rows = experiments.table2_throughput_rows(thresholds=(2,), setups=(SETUP_1,))
        by_config = {r["configuration"]: r for r in rows}
        assert by_config["GPU-1dev-host-enc"]["kernel_b40"] > by_config["CPU-12core"]["kernel_b40"]
        assert (
            by_config["GPU-8dev-device-enc"]["filter_b40"]
            > by_config["GPU-1dev-device-enc"]["filter_b40"]
        )

    def test_table4_and_table5_speedups(self):
        t4 = experiments.table4_speedup_rows(reduction=0.90)
        assert all(r["theoretical_speedup"] == pytest.approx(10.0, rel=0.01) for r in t4)
        assert all(r["achieved_speedup"] < r["theoretical_speedup"] for r in t4)
        t5 = experiments.table5_overall_rows(reduction=0.90)
        setup1_filtered = [
            r for r in t5 if r["setup"] == "Setup 1" and r["mrFAST with"] != "NoFilter"
        ]
        # Setup 1 achieves an end-to-end speedup (paper: 1.3-1.4x).
        assert all(r["overall_speedup"] > 1.0 for r in setup1_filtered)

    def test_table6_power_trends(self):
        rows = experiments.table6_power_rows()
        s1_100 = next(r for r in rows if r["setup"] == "Setup 1" and r["read_length"] == 100 and r["encoding"] == "device")
        s1_250 = next(r for r in rows if r["setup"] == "Setup 1" and r["read_length"] == 250 and r["encoding"] == "device")
        assert s1_250["power_max_mw"] > s1_100["power_max_mw"]
        assert s1_250["power_avg_mw"] > s1_100["power_avg_mw"]

    def test_encoding_actor_rows_crossover(self):
        rows = experiments.encoding_actor_rows(thresholds=(0, 4), setups=(SETUP_1,))
        for row in rows:
            # Host encoding wins on kernel time, loses on filter time (Figure 6).
            assert row["host_kernel_mps"] > row["device_kernel_mps"]
            assert row["host_filter_mps"] < row["device_filter_mps"]

    def test_read_length_rows_decreasing(self):
        rows = experiments.read_length_rows(setups=(SETUP_1,))
        throughputs = [r["device_filter_mps"] for r in rows]
        assert throughputs == sorted(throughputs, reverse=True)

    def test_multi_gpu_rows_scale(self):
        rows = experiments.multi_gpu_rows(device_counts=(1, 4, 8))
        assert rows[-1]["host_kernel_mps"] > 5 * rows[0]["host_kernel_mps"]
        assert rows[-1]["device_filter_mps"] > rows[0]["device_filter_mps"]

    def test_error_threshold_rows_cpu_grows_gpu_flat(self):
        rows = experiments.error_threshold_filter_time_rows(thresholds=(0, 10), setups=(SETUP_1,))
        cpu_growth = rows[-1]["Setup 1 12-core CPU_s"] / rows[0]["Setup 1 12-core CPU_s"]
        gpu_growth = rows[-1]["Setup 1 device-enc GPU_s"] / rows[0]["Setup 1 device-enc GPU_s"]
        assert cpu_growth > 3.0
        assert gpu_growth < 1.3

    def test_occupancy_rows(self):
        rows = experiments.occupancy_rows()
        assert len(rows) == 8
        assert all(r["theoretical_occupancy_pct"] == 50.0 for r in rows)
        assert all(40.0 <= r["achieved_occupancy_pct"] <= 50.0 for r in rows)


class TestWholeGenomeExperiment:
    def test_run_and_rows(self):
        rows = Session().run(
            Workload.from_dict(
                {
                    "input": {"kind": "mapping", "n_reads": 80, "genome_length": 20_000, "seed": 3},
                    "filter": {"filter": "gatekeeper-gpu", "error_threshold": 5},
                }
            )
        ).rows
        assert len(rows) == 2
        no_filter, filtered = rows
        # The filter must not change what gets mapped, only what gets verified.
        assert filtered["mappings"] == no_filter["mappings"]
        assert filtered["mapped_reads"] == no_filter["mapped_reads"]
        assert filtered["verification_pairs"] < no_filter["verification_pairs"]
        assert filtered["reduction_pct"] > 20.0
