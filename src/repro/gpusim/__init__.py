"""Simulated GPU substrate: devices, unified memory, occupancy, timing and power."""

from .device import (
    GTX_1080_TI,
    SETUP_1,
    SETUP_2,
    TESLA_K20X,
    WARP_SIZE,
    XEON_E5_2643,
    XEON_GOLD_6140,
    DeviceSpec,
    HostSpec,
    SystemSetup,
)
from .launch import KernelLaunchConfig, configure_launch, thread_load_bytes
from .memory import (
    MemoryAdvice,
    MemoryLocation,
    OutOfMemoryError,
    UnifiedBuffer,
    UnifiedMemoryManager,
)
from .multi_gpu import MultiGpuDispatcher, split_evenly
from .occupancy import OccupancyResult, occupancy_table, theoretical_occupancy
from .power import PowerModel, PowerSample
from .profiler import KernelProfiler, ProfileReport
from .stream import CudaEvent, CudaStream, StreamPool
from .timing import CpuTimingModel, FilterTiming, KernelTiming, TimingModel

__all__ = [
    "GTX_1080_TI",
    "SETUP_1",
    "SETUP_2",
    "TESLA_K20X",
    "WARP_SIZE",
    "XEON_E5_2643",
    "XEON_GOLD_6140",
    "DeviceSpec",
    "HostSpec",
    "SystemSetup",
    "KernelLaunchConfig",
    "configure_launch",
    "thread_load_bytes",
    "MemoryAdvice",
    "MemoryLocation",
    "OutOfMemoryError",
    "UnifiedBuffer",
    "UnifiedMemoryManager",
    "MultiGpuDispatcher",
    "split_evenly",
    "OccupancyResult",
    "occupancy_table",
    "theoretical_occupancy",
    "PowerModel",
    "PowerSample",
    "KernelProfiler",
    "ProfileReport",
    "CudaEvent",
    "CudaStream",
    "StreamPool",
    "CpuTimingModel",
    "FilterTiming",
    "KernelTiming",
    "TimingModel",
]
