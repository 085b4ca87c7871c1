"""GateKeeper-GPU core: configuration, buffers, preprocessing and kernel."""

from .buffers import BufferPlan, FiltrationBuffers, plan_buffers
from .config import EncodingActor, SystemConfiguration
from .filter import GateKeeperGPU
from .kernel import (
    device_encode,
    fold_words_to_base_mask,
    run_gatekeeper_kernel,
    shift_words_left,
    shift_words_right,
    xor_words,
)
from .preprocess import PreparedBatch, encode_pair_arrays, prepare_batches
from .results import FilterRunResult

__all__ = [
    "BufferPlan",
    "FiltrationBuffers",
    "plan_buffers",
    "EncodingActor",
    "SystemConfiguration",
    "GateKeeperGPU",
    "device_encode",
    "fold_words_to_base_mask",
    "run_gatekeeper_kernel",
    "shift_words_left",
    "shift_words_right",
    "xor_words",
    "PreparedBatch",
    "encode_pair_arrays",
    "prepare_batches",
    "FilterRunResult",
]
