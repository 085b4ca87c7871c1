"""Multi-GPU timing of filtering batches (paper Sections 3.1 and 5.2).

In the multi-GPU model every device receives an equal share of the batch so
the workload is fair; the reported kernel time is the time of the slowest
device.  :func:`split_evenly` is that split, and :class:`MultiGpuDispatcher`
evaluates and combines the analytic per-device timings of it (the filter
engines run the shares functionally, on the CPU).
"""

from __future__ import annotations

import math
from typing import Sequence

from .device import DeviceSpec
from .timing import FilterTiming, TimingModel

__all__ = ["MultiGpuDispatcher", "split_evenly"]


def split_evenly(n_items: int, n_devices: int) -> list[slice]:
    """Split ``n_items`` into ``n_devices`` contiguous, nearly equal slices.

    Bound ``i`` is ``floor(i * (n_items / n_devices))`` and the last bound is
    ``n_items``: the float arithmetic of ``np.linspace(0, n_items,
    n_devices + 1, dtype=int)``, without its per-call overhead.  The exact
    integer form ``(i * n_items) // n_devices`` rounds differently for some
    sizes, which would move device shares and modelled timings.
    """
    if n_devices <= 0:
        raise ValueError("n_devices must be positive")
    step = n_items / n_devices
    bounds = [math.floor(i * step) for i in range(n_devices)] + [int(n_items)]
    return [slice(bounds[i], bounds[i + 1]) for i in range(n_devices)]


class MultiGpuDispatcher:
    """Per-device timings of a batch split over several identical devices."""

    def __init__(self, devices: Sequence[DeviceSpec], timing_model: TimingModel | None = None):
        if not devices:
            raise ValueError("at least one device is required")
        self.devices = list(devices)
        self.timing_model = timing_model or TimingModel(self.devices[0])

    @property
    def n_devices(self) -> int:
        return len(self.devices)

    def share_timings(
        self,
        n_items: int,
        read_length: int,
        error_threshold: int,
        encode_on_device: bool = True,
    ) -> list[FilterTiming]:
        """Per-device analytic timings for an equal split of ``n_items``.

        A pure function of the totals, so every execution strategy (serial
        or any executor fan-out) reports identical device timings.
        """
        return [
            self.timing_model.filter_timing(
                item_slice.stop - item_slice.start,
                read_length,
                error_threshold,
                encode_on_device=encode_on_device,
                n_devices=1,
            )
            for item_slice in split_evenly(n_items, self.n_devices)
        ]

    @staticmethod
    def combined_kernel_time_from_timings(timings: Sequence[FilterTiming]) -> float:
        """Kernel time of a set of per-device timings (the slowest device)."""
        return max((t.kernel_s for t in timings), default=0.0)

    @staticmethod
    def combined_filter_time_from_timings(timings: Sequence[FilterTiming]) -> float:
        """Filter time of a set of per-device timings (host phases amortised)."""
        host_side = sum(t.encode_s + t.host_prep_s + t.transfer_s for t in timings)
        kernel = MultiGpuDispatcher.combined_kernel_time_from_timings(timings)
        return host_side / max(1, len(timings)) * 1.0 + kernel
