"""Pre-alignment filters: GateKeeper-GPU and the published comparators."""

from .base import FilterDecision, FilterResult, PreAlignmentFilter
from .bitvector import (
    amend_mask,
    count_one_runs,
    count_set_windows,
    hamming_mask,
    longest_zero_run,
    shifted_mask,
    zero_run_lengths,
)
from .gatekeeper import GateKeeperFilter
from .gatekeeper_gpu import GateKeeperGPUFilter
from .magnet import MagnetFilter
from .masks import EdgePolicy, MaskSet, build_mask_set, final_bitvector
from .shd import SHDFilter
from .shouji import ShoujiFilter, neighborhood_map, neighborhood_map_batch
from .sneakysnake import SneakySnakeFilter

__all__ = [
    "FilterDecision",
    "FilterResult",
    "PreAlignmentFilter",
    "amend_mask",
    "count_one_runs",
    "count_set_windows",
    "hamming_mask",
    "longest_zero_run",
    "shifted_mask",
    "zero_run_lengths",
    "GateKeeperFilter",
    "GateKeeperGPUFilter",
    "MagnetFilter",
    "EdgePolicy",
    "MaskSet",
    "build_mask_set",
    "final_bitvector",
    "SHDFilter",
    "ShoujiFilter",
    "neighborhood_map",
    "neighborhood_map_batch",
    "SneakySnakeFilter",
]
