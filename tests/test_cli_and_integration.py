"""CLI smoke tests and end-to-end integration tests across the packages."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.align import edit_distance
from repro.cli import experiment_main, filter_main, map_main
from repro.core import EncodingActor, GateKeeperGPU
from repro.filters import GateKeeperGPUFilter, SneakySnakeFilter
from repro.genomics import write_fastq, read_fastq
from repro.gpusim import SETUP_2
from repro.mapper import MrFastMapper
from repro.simulate import (
    GenomeProfile,
    MutationProfile,
    build_dataset,
    generate_reference,
    simulate_reads,
)


class TestCli:
    def test_setup_py_ships_the_package_version(self):
        root = Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "setup.py", "--version"],
            cwd=root, capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip().splitlines()[-1] == repro.__version__

    def test_filter_main(self, capsys):
        assert filter_main(["--dataset", "Set 1", "--pairs", "120", "--error-threshold", "4"]) == 0
        out = capsys.readouterr().out
        assert "GateKeeper-GPU on Set 1" in out
        assert "n_rejected" in out

    def test_filter_main_setup2_host_encoding(self, capsys):
        assert (
            filter_main(
                [
                    "--dataset",
                    "Set 1",
                    "--pairs",
                    "80",
                    "--encoding",
                    "host",
                    "--setup",
                    "setup2",
                ]
            )
            == 0
        )
        assert "n_pairs" in capsys.readouterr().out

    def test_map_main(self, capsys):
        assert map_main(["--reads", "40", "--genome-length", "12000"]) == 0
        out = capsys.readouterr().out
        assert "NoFilter" in out and "GateKeeper-GPU" in out

    def test_experiment_main_timing_tables(self, capsys):
        for name in ("table2", "table5", "table6", "fig7", "fig8", "occupancy"):
            assert experiment_main([name]) == 0
        assert "Reproduction of" in capsys.readouterr().out

    def test_experiment_main_rejects_unknown(self):
        with pytest.raises(SystemExit):
            experiment_main(["not-a-table"])


class TestEndToEnd:
    def test_fastq_to_mapping_with_filter(self, tmp_path):
        """Simulate reads, write/read FASTQ, map with the GPU filter, check consistency."""
        reference = generate_reference(
            15_000, seed=9, profile=GenomeProfile(duplication_fraction=0.1, n_island_count=0)
        )
        reads = simulate_reads(
            reference, 30, 100, profile=MutationProfile(0.01, 0.001, 0.001), seed=10
        )
        path = tmp_path / "reads.fq"
        write_fastq(path, reads)
        loaded = read_fastq(path)
        assert len(loaded) == 30

        gatekeeper = GateKeeperGPU(read_length=100, error_threshold=5, setup=SETUP_2, n_devices=1)
        mapper = MrFastMapper(reference, error_threshold=5, k=10, prefilter=gatekeeper)
        result = mapper.map_reads(loaded)
        plain = MrFastMapper(reference, error_threshold=5, k=10).map_reads(loaded)
        assert result.stats.mappings == plain.stats.mappings
        # Every reported mapping is genuinely within the threshold.
        for record in result.records:
            segment = reference.segment(record.position, 100)
            assert edit_distance(record.sequence, segment) <= 5
            assert record.edit_distance <= 5

    def test_dataset_filter_agreement_across_apis(self):
        """Scalar filter, batched kernel and the GateKeeperGPU API agree pair by pair."""
        dataset = build_dataset("Set 9", n_pairs=60, seed=4)
        threshold = 10
        api = GateKeeperGPU(read_length=250, error_threshold=threshold)
        api_result = api.filter_dataset(dataset)
        scalar = GateKeeperGPUFilter(threshold)
        for i in range(dataset.n_pairs):
            expected = scalar.filter_pair(dataset.reads[i], dataset.segments[i]).accepted
            assert bool(api_result.accepted[i]) == expected

    def test_filter_cascade_consistency(self):
        """A stricter filter downstream never resurrects pairs GateKeeper-GPU rejected."""
        dataset = build_dataset("Set 1", n_pairs=120, seed=6)
        threshold = 5
        gkg = GateKeeperGPUFilter(threshold)
        snake = SneakySnakeFilter(threshold)
        for read, segment in zip(dataset.reads, dataset.segments):
            truth = (
                "N" in read
                or "N" in segment
                or edit_distance(read, segment) <= threshold
            )
            if truth:
                # Neither filter may reject a genuine pair.
                assert gkg.filter_pair(read, segment).accepted
                assert snake.filter_pair(read, segment).accepted

    def test_host_and_device_encoding_end_to_end(self):
        dataset = build_dataset("Set 3", n_pairs=100, seed=8)
        host = GateKeeperGPU(read_length=100, error_threshold=5, encoding=EncodingActor.HOST)
        device = GateKeeperGPU(read_length=100, error_threshold=5, encoding=EncodingActor.DEVICE)
        assert np.array_equal(
            host.filter_dataset(dataset).accepted, device.filter_dataset(dataset).accepted
        )
