"""Tests for the system configuration, buffer planning and preprocessing stages."""

import numpy as np
import pytest

from repro.core import (
    EncodingActor,
    FiltrationBuffers,
    SystemConfiguration,
    plan_buffers,
    prepare_batches_encoded,
)
from repro.genomics.encoding import EncodedPairBatch
from repro.gpusim import GTX_1080_TI, SETUP_1, SETUP_2, TESLA_K20X
from helpers import random_sequence


class TestSystemConfiguration:
    def test_defaults(self):
        config = SystemConfiguration(read_length=100, error_threshold=5)
        assert config.n_devices == 1
        assert config.primary_device is GTX_1080_TI
        assert config.prefetch_enabled
        assert config.encoding is EncodingActor.DEVICE

    def test_for_setup(self):
        config = SystemConfiguration.for_setup(SETUP_2, 100, 5, n_devices=2)
        assert config.n_devices == 2
        assert config.primary_device is TESLA_K20X
        assert not config.prefetch_enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfiguration(read_length=0, error_threshold=1)
        with pytest.raises(ValueError):
            SystemConfiguration(read_length=100, error_threshold=-1)
        with pytest.raises(ValueError):
            SystemConfiguration(read_length=100, error_threshold=101)
        with pytest.raises(ValueError):
            SystemConfiguration(read_length=100, error_threshold=5, devices=[])
        with pytest.raises(ValueError):
            SystemConfiguration(read_length=100, error_threshold=5, word_bits=16)

    def test_thread_load_and_batch_size(self):
        config = SystemConfiguration(read_length=100, error_threshold=5)
        assert config.thread_load > 0
        launch = config.launch_config(10_000)
        assert launch.batch_size == 10_000
        assert config.batch_size(10_000) == 10_000
        # Huge work lists are clipped by the device memory.
        assert config.batch_size(10**10) < 10**10

    def test_multi_device_batch_is_per_device(self):
        single = SystemConfiguration(read_length=100, error_threshold=5)
        multi = SystemConfiguration(
            read_length=100, error_threshold=5, devices=[GTX_1080_TI] * 4
        )
        assert multi.launch_config(1000).batch_size == 250
        assert single.launch_config(1000).batch_size == 1000


class TestBufferPlanning:
    def test_host_encoding_buffers_are_smaller(self):
        host = SystemConfiguration(read_length=100, error_threshold=5, encoding=EncodingActor.HOST)
        device = SystemConfiguration(
            read_length=100, error_threshold=5, encoding=EncodingActor.DEVICE
        )
        assert plan_buffers(host, 1000).read_buffer < plan_buffers(device, 1000).read_buffer

    def test_plan_totals(self):
        config = SystemConfiguration(read_length=100, error_threshold=5)
        plan = plan_buffers(config, 10)
        assert plan.total == plan.read_buffer + plan.reference_buffer + plan.result_flags + plan.result_distances
        assert plan.result_flags == 10
        assert plan.result_distances == 40

    def test_filtration_buffers_advice_and_prefetch(self):
        config = SystemConfiguration(read_length=100, error_threshold=5)
        buffers = FiltrationBuffers(GTX_1080_TI, config, 1000)
        assert buffers.apply_memory_advice()
        assert buffers.prefetch_inputs()
        buffers.kernel_touch()
        buffers.collect_results()
        # Prefetched inputs never fault; the two result buffers fault twice each.
        assert buffers.migration_stats.prefetch_calls == 2
        assert buffers.migration_stats.fault_migrations == 4

    def test_filtration_buffers_on_kepler_skip_advice(self):
        config = SystemConfiguration(
            read_length=100, error_threshold=5, devices=[TESLA_K20X]
        )
        buffers = FiltrationBuffers(TESLA_K20X, config, 100)
        assert not buffers.apply_memory_advice()
        assert not buffers.prefetch_inputs()


def batches_of(reads, segments, config):
    return prepare_batches_encoded(EncodedPairBatch.from_lists(reads, segments), config)


class TestPreprocessing:
    def test_batches_cover_all_pairs_in_order(self, rng):
        reads = [random_sequence(40, rng) for _ in range(25)]
        segments = [random_sequence(40, rng) for _ in range(25)]
        config = SystemConfiguration(read_length=40, error_threshold=3, max_reads_per_batch=10)
        batches = list(batches_of(reads, segments, config))
        assert [b.start for b in batches] == [0, 10, 20]
        assert sum(b.n_pairs for b in batches) == 25

    def test_host_encoding_populates_words(self, rng):
        reads = [random_sequence(40, rng) for _ in range(5)]
        segments = [random_sequence(40, rng) for _ in range(5)]
        config = SystemConfiguration(read_length=40, error_threshold=3, encoding=EncodingActor.HOST)
        batch = next(iter(batches_of(reads, segments, config)))
        assert batch.host_encoded
        assert batch.read_words is not None and batch.ref_words is not None
        assert batch.read_words.shape == (5, 2)  # 40 bases -> 2 x 64-bit words

    def test_device_encoding_leaves_words_empty(self, rng):
        reads = [random_sequence(40, rng) for _ in range(5)]
        segments = [random_sequence(40, rng) for _ in range(5)]
        config = SystemConfiguration(read_length=40, error_threshold=3, encoding=EncodingActor.DEVICE)
        batch = next(iter(batches_of(reads, segments, config)))
        assert not batch.host_encoded

    def test_undefined_flagged(self):
        config = SystemConfiguration(read_length=8, error_threshold=1)
        batch = next(iter(batches_of(["ACGTNGTA"], ["ACGTAGTA"], config)))
        assert batch.undefined.tolist() == [True]

    def test_mismatched_lists_raise(self):
        with pytest.raises(ValueError):
            EncodedPairBatch.from_lists(["ACGTACGT"], [])

    def test_empty_input_yields_nothing(self):
        config = SystemConfiguration(read_length=8, error_threshold=1)
        assert list(batches_of([], [], config)) == []
