"""GateKeeper-GPU filtering algorithm (scalar reference implementation).

The paper's algorithmic contribution over the original GateKeeper is the
handling of the bit positions vacated by each shift: instead of leaving them 0
(which lets the final AND hide errors at the leading/trailing bases), the
amended masks are ORed with 1s at those positions (paper Section 3.4,
Figure 2).  As a result GateKeeper-GPU rejects some over-threshold pairs that
GateKeeper falsely accepts, producing up to 52x fewer false accepts while
never rejecting a truly similar pair.

The filter shares :class:`~repro.filters.gatekeeper.GateKeeperFilter`'s
scalar reference and its packed-word batch kernel
(:func:`repro.filters.gatekeeper.gatekeeper_kernel`, which mirrors the CUDA
kernel's word layout); only the edge policy differs.  Property tests check
the two paths against each other.
"""

from __future__ import annotations

from .gatekeeper import COUNT_WINDOW, GateKeeperFilter
from .masks import EdgePolicy

__all__ = ["GateKeeperGPUFilter"]


class GateKeeperGPUFilter(GateKeeperFilter):
    """GateKeeper with the leading/trailing amendment of GateKeeper-GPU."""

    name = "GateKeeper-GPU"
    edge_policy = EdgePolicy.ONE

    def __init__(
        self,
        error_threshold: int,
        count_window: int = COUNT_WINDOW,
        max_zero_run: int = 2,
    ):
        super().__init__(error_threshold, count_window=count_window, max_zero_run=max_zero_run)
