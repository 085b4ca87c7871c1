"""Tests for the GateKeeperGPU public API and the filter + verify run."""

import numpy as np
import pytest

from repro.align import edit_distance
from repro.api import Session, Workload
from repro.core import EncodingActor, GateKeeperGPU
from repro.filters import GateKeeperGPUFilter
from repro.gpusim import SETUP_1, SETUP_2
from repro.simulate import build_dataset
from helpers import mutated_pair, random_sequence


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("Set 3", n_pairs=300, seed=11)


class TestGateKeeperGPUFilterRuns:
    def test_filter_dataset_counts(self, dataset):
        gk = GateKeeperGPU(read_length=100, error_threshold=5)
        result = gk.filter_dataset(dataset)
        assert result.n_pairs == 300
        assert result.n_accepted + result.n_rejected == 300
        assert 0.0 <= result.rejection_rate <= 1.0
        assert result.kernel_time_s > 0 and result.filter_time_s > result.kernel_time_s
        assert result.n_batches >= 1

    def test_decisions_match_scalar_filter(self, dataset):
        gk = GateKeeperGPU(read_length=100, error_threshold=5)
        result = gk.filter_dataset(dataset)
        scalar = GateKeeperGPUFilter(5)
        for i in range(0, 300, 17):
            expected = scalar.filter_pair(dataset.reads[i], dataset.segments[i]).accepted
            assert bool(result.accepted[i]) == expected

    def test_encoding_actor_does_not_change_decisions(self, dataset):
        host = GateKeeperGPU(read_length=100, error_threshold=5, encoding=EncodingActor.HOST)
        device = GateKeeperGPU(read_length=100, error_threshold=5, encoding=EncodingActor.DEVICE)
        assert np.array_equal(
            host.filter_dataset(dataset).accepted, device.filter_dataset(dataset).accepted
        )

    def test_multi_gpu_does_not_change_decisions(self, dataset):
        single = GateKeeperGPU(read_length=100, error_threshold=5, setup=SETUP_1, n_devices=1)
        multi = GateKeeperGPU(read_length=100, error_threshold=5, setup=SETUP_1, n_devices=8)
        r1 = single.filter_dataset(dataset)
        r8 = multi.filter_dataset(dataset)
        assert np.array_equal(r1.accepted, r8.accepted)
        assert r8.kernel_time_s < r1.kernel_time_s  # modelled scaling

    def test_setup2_slower_than_setup1(self, dataset):
        s1 = GateKeeperGPU(read_length=100, error_threshold=5, setup=SETUP_1).filter_dataset(dataset)
        s2 = GateKeeperGPU(read_length=100, error_threshold=5, setup=SETUP_2).filter_dataset(dataset)
        assert s2.kernel_time_s > s1.kernel_time_s
        assert np.array_equal(s1.accepted, s2.accepted)

    def test_legacy_edge_policy_accepts_at_least_as_many(self, dataset):
        improved = GateKeeperGPU(read_length=100, error_threshold=5)
        legacy = GateKeeperGPU(read_length=100, error_threshold=5, legacy_edge_policy=True)
        assert legacy.filter_dataset(dataset).n_accepted >= improved.filter_dataset(dataset).n_accepted

    def test_small_batch_size_many_batches_same_result(self, dataset):
        gk_small = GateKeeperGPU(read_length=100, error_threshold=5, max_reads_per_batch=37)
        gk_big = GateKeeperGPU(read_length=100, error_threshold=5)
        small = gk_small.filter_dataset(dataset)
        big = gk_big.filter_dataset(dataset)
        assert small.n_batches > big.n_batches
        assert np.array_equal(small.accepted, big.accepted)

    def test_filter_pairs_and_lists_agree(self, dataset):
        gk = GateKeeperGPU(read_length=100, error_threshold=5)
        pairs = dataset.to_pairs()[:50]
        by_pairs = gk.filter_pairs(pairs)
        by_lists = gk.filter_lists(dataset.reads[:50], dataset.segments[:50])
        assert np.array_equal(by_pairs.accepted, by_lists.accepted)

    def test_no_false_rejects_against_ground_truth(self, dataset):
        gk = GateKeeperGPU(read_length=100, error_threshold=5)
        result = gk.filter_dataset(dataset)
        for i in range(dataset.n_pairs):
            if "N" in dataset.reads[i] or "N" in dataset.segments[i]:
                continue
            if edit_distance(dataset.reads[i], dataset.segments[i]) <= 5:
                assert result.accepted[i]

    def test_input_validation(self):
        gk = GateKeeperGPU(read_length=10, error_threshold=1)
        with pytest.raises(ValueError):
            gk.filter_lists(["ACGTACGTAC"], [])
        with pytest.raises(ValueError):
            gk.filter_lists([], [])
        with pytest.raises(ValueError):
            GateKeeperGPU(read_length=10, error_threshold=1, setup=SETUP_1, devices=[SETUP_1.device])

    def test_allocate_buffers(self):
        gk = GateKeeperGPU(read_length=100, error_threshold=5, setup=SETUP_1, n_devices=2)
        buffers = gk.allocate_buffers(1000)
        assert len(buffers) == 2
        assert buffers[0].plan.total > 0

    def test_summary_keys(self, dataset):
        summary = GateKeeperGPU(read_length=100, error_threshold=5).filter_dataset(dataset).summary()
        for key in ("n_pairs", "n_rejected", "kernel_time_s", "filter_time_s", "rejection_rate"):
            assert key in summary


def run_set3(n_pairs, verify=True):
    """GateKeeper-GPU filter + verify over a Set 3 pool via the front door."""
    return Session().run(
        Workload.from_dict(
            {
                "input": {"kind": "dataset", "dataset": "Set 3", "n_pairs": n_pairs,
                          "seed": 11},
                "filter": {"filter": "gatekeeper-gpu", "error_threshold": 5},
                "execution": {"verify": verify},
                "output": {"collect_decisions": True},
            }
        )
    )


class TestFilterVerifyRun:
    def test_report_consistency(self):
        summary = run_set3(150).summary
        assert summary["n_pairs"] == 150
        assert summary["n_accepted"] + summary["n_rejected"] == 150
        assert (
            summary["verified_accepts"] + summary["verified_rejects"]
            == summary["n_accepted"]
        )
        assert 0.0 <= summary["reduction_pct"] <= 100.0
        assert summary["no_filter_verification_time_s"] > summary["verification_time_s"]
        assert summary["theoretical_speedup"] >= 1.0

    def test_without_verification_loop(self):
        summary = run_set3(100, verify=False).summary
        assert summary["verified_accepts"] == 0 and summary["verified_rejects"] == 0
        assert summary["verification_time_s"] > 0  # still modelled

    def test_filter_never_rejects_what_verification_accepts(self):
        # No mapping can be lost: every pair the verifier would accept passes the filter.
        result = run_set3(200)
        pool = build_dataset("Set 3", n_pairs=200, seed=11)
        for i in np.flatnonzero(~result.raw.accepted):
            assert edit_distance(pool.reads[int(i)], pool.segments[int(i)]) > 5
