"""Tests for the analytic timing, power, launch and multi-GPU models.

The assertions check the *relationships* the paper reports (who is faster,
what grows with what) plus a few calibration anchors against the published
raw measurements (Sup. Tables S.13-S.15), with generous tolerances.
"""

import numpy as np
import pytest

from repro.gpusim import (
    GTX_1080_TI,
    SETUP_1,
    SETUP_2,
    TESLA_K20X,
    CpuTimingModel,
    KernelProfiler,
    MultiGpuDispatcher,
    PowerModel,
    TimingModel,
    configure_launch,
    split_evenly,
    launch,
    thread_load_bytes,
)

N_PAIRS = 30_000_000


@pytest.fixture(scope="module")
def setup1_model() -> TimingModel:
    return TimingModel(SETUP_1.device, SETUP_1.host)


@pytest.fixture(scope="module")
def setup2_model() -> TimingModel:
    return TimingModel(SETUP_2.device, SETUP_2.host)


class TestKernelTimeModel:
    def test_calibration_anchor_100bp_host_encoded(self, setup1_model):
        # Paper Sup. Table S.13: 0.15 s (e=2) and 0.29 s (e=5) for 30 M pairs.
        assert setup1_model.kernel_time(N_PAIRS, 100, 2, encode_on_device=False) == pytest.approx(
            0.15, rel=0.25
        )
        assert setup1_model.kernel_time(N_PAIRS, 100, 5, encode_on_device=False) == pytest.approx(
            0.29, rel=0.25
        )

    def test_calibration_anchor_250bp(self, setup1_model):
        # Paper Sup. Table S.15: 0.74 s (e=6) and 1.17 s (e=10), host-encoded.
        assert setup1_model.kernel_time(N_PAIRS, 250, 6, encode_on_device=False) == pytest.approx(
            0.74, rel=0.3
        )
        assert setup1_model.kernel_time(N_PAIRS, 250, 10, encode_on_device=False) == pytest.approx(
            1.17, rel=0.3
        )

    def test_kernel_time_grows_with_threshold_and_length(self, setup1_model):
        t_small = setup1_model.kernel_time(N_PAIRS, 100, 2)
        assert setup1_model.kernel_time(N_PAIRS, 100, 10) > t_small
        assert setup1_model.kernel_time(N_PAIRS, 250, 2) > t_small

    def test_device_encoding_increases_kernel_time(self, setup1_model):
        host = setup1_model.kernel_time(N_PAIRS, 150, 4, encode_on_device=False)
        device = setup1_model.kernel_time(N_PAIRS, 150, 4, encode_on_device=True)
        assert device > host

    def test_kepler_slower_than_pascal(self, setup1_model, setup2_model):
        pascal = setup1_model.kernel_time(N_PAIRS, 100, 2)
        kepler = setup2_model.kernel_time(N_PAIRS, 100, 2)
        assert 2.0 < kepler / pascal < 8.0


class TestFilterTimeModel:
    def test_filter_time_dominated_by_host_side(self, setup1_model):
        timing = setup1_model.filter_timing(N_PAIRS, 100, 2, encode_on_device=True)
        assert timing.host_prep_s > timing.kernel_s
        assert timing.filter_s == pytest.approx(
            timing.encode_s + timing.host_prep_s + timing.transfer_s + timing.kernel_s
        )

    def test_host_encoding_raises_filter_time_but_lowers_kernel_time(self, setup1_model):
        device = setup1_model.filter_timing(N_PAIRS, 100, 5, encode_on_device=True)
        host = setup1_model.filter_timing(N_PAIRS, 100, 5, encode_on_device=False)
        assert host.filter_s > device.filter_s
        assert host.kernel_s < device.kernel_s

    def test_filter_time_nearly_flat_in_threshold(self, setup1_model):
        low = setup1_model.filter_timing(N_PAIRS, 250, 0, encode_on_device=True).filter_s
        high = setup1_model.filter_timing(N_PAIRS, 250, 10, encode_on_device=True).filter_s
        assert high / low < 1.25  # paper: roughly constant

    def test_cpu_filter_time_grows_linearly_with_threshold(self):
        cpu = CpuTimingModel(SETUP_1.host)
        low = cpu.filter_time(N_PAIRS, 250, 0, threads=12)
        high = cpu.filter_time(N_PAIRS, 250, 10, threads=12)
        assert high / low > 3.0  # paper Sup. Table S.16: 12.2 s -> 84.5 s

    def test_gpu_beats_12core_cpu_on_kernel_time(self, setup1_model):
        cpu = CpuTimingModel(SETUP_1.host)
        gpu_kernel = setup1_model.kernel_time(N_PAIRS, 100, 5, encode_on_device=False)
        cpu_kernel = cpu.kernel_time(N_PAIRS, 100, 5, threads=12)
        assert cpu_kernel / gpu_kernel > 20.0

    def test_setup2_pays_page_fault_penalty(self, setup1_model, setup2_model):
        t1 = setup1_model.transfer_time(N_PAIRS, 100, True)
        t2 = setup2_model.transfer_time(N_PAIRS, 100, True)
        assert t2 > t1  # slower PCIe generation plus no prefetching

    def test_multi_gpu_speedup_bounds(self, setup1_model):
        single = setup1_model.filter_timing(N_PAIRS, 100, 2, encode_on_device=False, n_devices=1)
        multi = setup1_model.filter_timing(N_PAIRS, 100, 2, encode_on_device=False, n_devices=8)
        kernel_speedup = single.kernel_s / multi.kernel_s
        assert 5.0 < kernel_speedup <= 8.0
        assert multi.filter_s < single.filter_s

    def test_invalid_device_count(self, setup1_model):
        with pytest.raises(ValueError):
            setup1_model.filter_timing(10, 100, 2, n_devices=0)

    def test_cpu_multithread_speedup(self):
        cpu = CpuTimingModel(SETUP_1.host)
        single = cpu.kernel_time(N_PAIRS, 100, 2, threads=1)
        twelve = cpu.kernel_time(N_PAIRS, 100, 2, threads=12)
        assert 8.0 < single / twelve <= 12.0
        assert cpu.filter_time(N_PAIRS, 100, 2, threads=12) < cpu.filter_time(
            N_PAIRS, 100, 2, threads=1
        )


class TestLaunchConfig:
    def test_thread_load_grows_with_read_length_and_threshold(self):
        base = thread_load_bytes(100, 2)
        assert thread_load_bytes(250, 2) > base
        assert thread_load_bytes(100, 10) > base

    def test_batch_size_limited_by_memory(self):
        config = configure_launch(GTX_1080_TI, 10**9, 100, 5)
        assert 0 < config.batch_size < 10**9
        assert config.blocks == -(-config.batch_size // config.threads_per_block)

    def test_small_work_list_fits_one_batch(self):
        config = configure_launch(GTX_1080_TI, 5_000, 100, 5)
        assert config.batch_size == 5_000

    def test_occupancy_attached(self):
        config = configure_launch(GTX_1080_TI, 1000, 100, 5)
        assert config.occupancy.occupancy == pytest.approx(0.5)
        assert config.total_threads >= config.batch_size

    def test_negative_filtrations_rejected(self):
        with pytest.raises(ValueError):
            configure_launch(GTX_1080_TI, -1, 100, 5)

    def test_limits_cached_per_configuration_not_per_batch(self):
        limits = launch._launch_limits
        first = configure_launch(GTX_1080_TI, 1_000, 100, 5)
        cached = limits.cache_info().currsize
        configs = [configure_launch(GTX_1080_TI, n, 100, 5) for n in range(0, 3_000, 7)]
        assert limits.cache_info().currsize == cached
        assert [c.batch_size for c in configs] == list(range(0, 3_000, 7))
        assert configs[0].blocks == 0 and configs[1].blocks == 1
        limits.cache_clear()
        assert configure_launch(GTX_1080_TI, 1_000, 100, 5) == first
        # The device is part of the key: its memory caps the batch.
        assert (configure_launch(TESLA_K20X, 10**9, 100, 5).batch_size
                != configure_launch(GTX_1080_TI, 10**9, 100, 5).batch_size)


class TestPowerAndProfiler:
    def test_power_idle_matches_device_floor(self):
        sample = PowerModel(GTX_1080_TI).sample(100)
        assert sample.min_mw == pytest.approx(GTX_1080_TI.idle_power_mw)
        assert sample.min_mw < sample.average_mw < sample.max_mw

    def test_longer_reads_draw_more_power(self):
        model = PowerModel(GTX_1080_TI)
        assert model.sample(250).max_mw > model.sample(100).max_mw
        assert model.sample(250).average_mw > model.sample(100).average_mw

    def test_power_capped_at_tdp(self):
        sample = PowerModel(GTX_1080_TI).sample(1000, encode_on_device=False)
        assert sample.max_mw <= GTX_1080_TI.tdp_watts * 1000.0

    def test_kepler_idles_higher(self):
        assert PowerModel(TESLA_K20X).sample(100).min_mw > PowerModel(GTX_1080_TI).sample(100).min_mw

    def test_energy_positive(self):
        assert PowerModel(GTX_1080_TI).energy_joules(0.5, 100) > 0

    def test_profiler_achieved_close_to_theoretical(self):
        report = KernelProfiler(GTX_1080_TI).profile(100, 4)
        assert 0.45 <= report.achieved_occupancy <= report.theoretical_occupancy == 0.5

    def test_profiler_long_reads_high_warp_efficiency(self):
        profiler = KernelProfiler(GTX_1080_TI)
        assert profiler.profile(250, 10).warp_execution_efficiency > 0.95
        assert profiler.profile(100, 4).warp_execution_efficiency < 0.85

    def test_profiler_sm_efficiency_always_high(self):
        profiler = KernelProfiler(TESLA_K20X)
        for length in (100, 250):
            assert profiler.profile(length, 4).sm_efficiency > 0.95

    def test_profiler_report_dict(self):
        report = KernelProfiler(GTX_1080_TI).profile(100, 4).as_dict()
        assert report["theoretical_occupancy_pct"] == 50.0
        assert "power_avg_mw" in report


class TestMultiGpuDispatcher:
    def test_split_evenly_covers_everything(self):
        slices = split_evenly(103, 8)
        assert len(slices) == 8
        covered = sum(s.stop - s.start for s in slices)
        assert covered == 103
        assert slices[0].start == 0 and slices[-1].stop == 103

    def test_split_invalid(self):
        with pytest.raises(ValueError):
            split_evenly(10, 0)

    def test_split_matches_linspace_bounds(self):
        # Every size below 500 and some large ones, up to 64 devices.  The
        # exact integer split (i * n) // k rounds differently on this grid
        # (n = 30, k = 22 is one case), so it would fail here.
        sizes = list(range(500)) + [4_999, 30_000, 100_007, 123_456_789, 2**31 - 1]
        integer_split_differs = False
        for n_devices in range(1, 65):
            expected = np.linspace(0, np.array(sizes[1:]), n_devices + 1, dtype=int).T.tolist()
            expected.insert(0, np.linspace(0, 0, n_devices + 1, dtype=int).tolist())
            for n_items, bounds in zip(sizes, expected):
                slices = split_evenly(n_items, n_devices)
                assert [s.start for s in slices] + [slices[-1].stop] == bounds, (n_items, n_devices)
            integer_split_differs |= any(
                [(i * n) // n_devices for i in range(n_devices)] + [n] != bounds
                for n, bounds in zip(sizes, expected)
            )
        assert integer_split_differs
        assert {type(b) for s in split_evenly(np.int64(30_000), 3) for b in (s.start, s.stop)} == {int}

    def test_share_timings_cover_every_device(self):
        dispatcher = MultiGpuDispatcher([GTX_1080_TI] * 4)
        timings = dispatcher.share_timings(1000, read_length=100, error_threshold=2)
        assert len(timings) == 4
        kernel = dispatcher.combined_kernel_time_from_timings(timings)
        assert kernel == max(t.kernel_s for t in timings) > 0
        assert dispatcher.combined_filter_time_from_timings(timings) > kernel

    def test_requires_devices(self):
        with pytest.raises(ValueError):
            MultiGpuDispatcher([])


class TestProfilerCacheModel:
    def test_cache_hit_rates_match_paper_scale(self):
        report = KernelProfiler(GTX_1080_TI).profile(100, 4)
        # Paper Section 6: L2 hit rate ~86.2%, unified/texture L1 ~31.2%.
        assert report.l2_hit_rate == pytest.approx(0.862, abs=0.02)
        assert report.l1_hit_rate == pytest.approx(0.312, abs=0.02)
        longer = KernelProfiler(GTX_1080_TI).profile(250, 10)
        assert longer.l1_hit_rate <= report.l1_hit_rate
        assert longer.l2_hit_rate <= report.l2_hit_rate
        assert "l2_hit_rate_pct" in report.as_dict()
