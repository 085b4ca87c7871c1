"""Kernel launch configuration and batch sizing (paper Section 3.1).

GateKeeper-GPU computes, before filtering, the approximate memory load of one
filtration on a thread (the *thread load*), queries the device's free global
memory and derives the number of thread blocks and the number of filtrations
one kernel call can process (the *batch size*) so that GPU utilisation is
maximised and the number of host<->device transfers minimised.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..genomics.encoding import words_per_read
from .device import DeviceSpec
from .occupancy import OccupancyResult, theoretical_occupancy

__all__ = ["KernelLaunchConfig", "thread_load_bytes", "configure_launch"]

#: Registers the GateKeeper-GPU kernel needs per thread (Section 5.4.1).
KERNEL_REGISTERS_PER_THREAD = 48
#: Bytes per result entry written back (decision flag + approximate distance).
_RESULT_BYTES = 5
#: Fraction of free memory the batch may occupy (head-room for the driver).
_MEMORY_SAFETY_FRACTION = 0.85


@dataclass(frozen=True)
class KernelLaunchConfig:
    """Launch geometry and batch size for one kernel call."""

    threads_per_block: int
    blocks: int
    batch_size: int
    registers_per_thread: int
    occupancy: OccupancyResult

    @property
    def total_threads(self) -> int:
        return self.threads_per_block * self.blocks


def thread_load_bytes(read_length: int, error_threshold: int, word_bits: int = 32) -> int:
    """Approximate per-thread memory load of one filtration.

    One thread holds the encoded read, the encoded reference segment, the
    ``2e+1`` intermediate masks in its stack frame, and writes one result
    entry (paper Sections 3.1 and 3.2).
    """
    n_words = words_per_read(read_length, word_bits)
    word_bytes = word_bits // 8
    masks = 2 * error_threshold + 1
    sequences = 2 * n_words * word_bytes
    mask_storage = masks * n_words * word_bytes
    raw_input = 2 * read_length  # raw ASCII staged in unified memory
    return sequences + mask_storage + raw_input + _RESULT_BYTES


@lru_cache
def _launch_limits(
    device: DeviceSpec,
    read_length: int,
    error_threshold: int,
    free_memory_bytes: int | None,
    threads_per_block: int | None,
    registers_per_thread: int,
    word_bits: int,
) -> tuple[int, int, OccupancyResult]:
    """``(threads_per_block, max_batch_by_memory, occupancy)`` of a launch.

    Everything :func:`configure_launch` derives that does not depend on the
    number of filtrations, cached per device and parameter set (LRU, at the
    library's default size); a key with the filtration count in it would
    churn with every batch size a long-lived daemon sees.
    """
    threads_per_block = threads_per_block or device.max_threads_per_block
    free_memory = (
        int(device.global_memory_bytes * 0.9) if free_memory_bytes is None else free_memory_bytes
    )
    load = thread_load_bytes(read_length, error_threshold, word_bits)
    max_batch_by_memory = int(free_memory * _MEMORY_SAFETY_FRACTION // max(load, 1))
    occupancy = theoretical_occupancy(device, registers_per_thread, threads_per_block)
    return threads_per_block, max_batch_by_memory, occupancy


def configure_launch(
    device: DeviceSpec,
    n_filtrations: int,
    read_length: int,
    error_threshold: int,
    free_memory_bytes: int | None = None,
    threads_per_block: int | None = None,
    registers_per_thread: int = KERNEL_REGISTERS_PER_THREAD,
    word_bits: int = 32,
) -> KernelLaunchConfig:
    """Derive the batch size and launch geometry for a filtering run.

    ``n_filtrations`` is the number of pairs awaiting filtration; the batch
    size is capped by the device memory so the whole run may need several
    kernel calls (the pipeline handles the looping).
    """
    if n_filtrations < 0:
        raise ValueError("n_filtrations must be non-negative")
    threads_per_block, max_batch_by_memory, occupancy = _launch_limits(
        device,
        read_length,
        error_threshold,
        free_memory_bytes,
        threads_per_block,
        registers_per_thread,
        word_bits,
    )
    batch_size = max(1, min(n_filtrations, max_batch_by_memory)) if n_filtrations else 0
    blocks = -(-batch_size // threads_per_block) if batch_size else 0
    return KernelLaunchConfig(
        threads_per_block=threads_per_block,
        blocks=blocks,
        batch_size=batch_size,
        registers_per_thread=registers_per_thread,
        occupancy=occupancy,
    )
