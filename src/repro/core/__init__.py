"""GateKeeper-GPU core: configuration, buffers and preprocessing."""

from .buffers import BufferPlan, FiltrationBuffers, plan_buffers
from .config import EncodingActor, SystemConfiguration
from .results import FilterRunResult

__all__ = [
    "BufferPlan",
    "FiltrationBuffers",
    "plan_buffers",
    "EncodingActor",
    "SystemConfiguration",
    "FilterRunResult",
]
