"""GateKeeper-GPU core: configuration, buffers and preprocessing."""

from .buffers import BufferPlan, FiltrationBuffers, plan_buffers
from .config import EncodingActor, SystemConfiguration
from .filter import GateKeeperGPU
from .preprocess import PreparedBatch, prepare_batches
from .results import FilterRunResult

__all__ = [
    "BufferPlan",
    "FiltrationBuffers",
    "plan_buffers",
    "EncodingActor",
    "SystemConfiguration",
    "GateKeeperGPU",
    "PreparedBatch",
    "prepare_batches",
    "FilterRunResult",
]
