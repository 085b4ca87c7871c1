"""Original GateKeeper pre-alignment filter and the GateKeeper word kernel.

This is the baseline algorithm of Alser et al. (Bioinformatics 2017) that
GateKeeper-GPU improves upon.  The implementation follows the published
description: Hamming mask plus ``2e`` shifted masks, amendment of short zero
streaks, AND across all masks and a windowed look-up-table edit count.  The
bit positions vacated by the shifts are left 0 (``EdgePolicy.ZERO``), which is
the accuracy weakness that the GateKeeper-GPU leading/trailing amendment
fixes.

The whole family (GateKeeper, GateKeeper-GPU, SHD) runs one batch kernel,
:func:`gatekeeper_kernel`.  The CUDA kernel cannot hold a 200-bit register the
way the FPGA does, so an encoded read is an array of machine words and every
shift repairs the bits that cross word boundaries with explicit carry
transfers (paper Section 3.4: "there are 2e shifts and 2e carry-bit
operations" per filtration).  The kernel does exactly that word-level
arithmetic on word-major arrays — word ``w`` of every pair of a batch is one
row, as a warp reads it — and never leaves the packed ``uint64`` lane
representation of :mod:`repro.filters.packed`.  The per-base
mask pipeline of :mod:`repro.filters.masks` stays as the scalar reference
(:meth:`GateKeeperFilter.estimate_edits_codes`); the property tests pin the
kernel to it bit for bit.
"""

from __future__ import annotations

import numpy as np

from .base import PreAlignmentFilter
from .bitvector import count_set_windows
from .masks import EdgePolicy, build_mask_set
from .native import DEFAULT_KERNEL_TIER, resolve
from .packed import (
    amend_lanes,
    count_lane_windows,
    lane_span_mask,
    shifted_mismatch_lanes,
    word_major,
)

__all__ = ["GateKeeperFilter", "COUNT_WINDOW", "gatekeeper_kernel"]

#: Width (in bases) of the error-counting window used by the LUT approach.
COUNT_WINDOW = 4


def gatekeeper_kernel(
    read_words: np.ndarray,
    ref_words: np.ndarray,
    length: int,
    error_threshold: int,
    edge_one: bool,
    count_window: int,
    max_zero_run: int,
) -> np.ndarray:
    """Pure-NumPy GateKeeper estimates for a batch of packed pairs.

    The registered reference implementation of the ``gatekeeper_kernel``
    native pair.  The pair-major word arrays are transposed once to the
    word-major layout of :mod:`repro.filters.packed`; each of the ``2e+1``
    masks is then produced (shift with carry transfer, XOR, OR-fold),
    amended, edge-forced (``edge_one``) and ANDed into one accumulator, and
    the final mask is counted in ``count_window``-base windows.  The returned
    int32 estimates are bit-identical to the Numba twin's.
    """
    read_words = word_major(read_words)
    ref_words = word_major(ref_words)
    valid = lane_span_mask(0, length, read_words.shape[0])
    final = None
    for shift in [0] + [s for k in range(1, int(error_threshold) + 1) for s in (k, -k)]:
        # Vacated positions carry garbage comparisons (shifted-in zero bits vs
        # reference); vacant_value=0 normalises them to the raw-mask
        # convention before amendment, exactly as the scalar reference does.
        mask, vacated = shifted_mismatch_lanes(
            read_words, ref_words, shift, length, vacant_value=0, valid=valid
        )
        mask = amend_lanes(mask, max_zero_run=max_zero_run)
        if edge_one and vacated is not None:
            mask |= vacated
        if final is None:
            final = mask
        else:
            final &= mask
    return count_lane_windows(final, length, window=count_window)


class GateKeeperFilter(PreAlignmentFilter):
    """Original GateKeeper filter (the FPGA algorithm, reimplemented in software).

    Parameters
    ----------
    error_threshold:
        Maximum number of edits a pair may have and still be accepted.
    count_window:
        Window width (bases) for the LUT-based edit count; at least 1.
    max_zero_run:
        Zero streaks of this length or shorter (flanked by ones) are amended;
        1 or 2.
    """

    name = "GateKeeper"
    edge_policy = EdgePolicy.ZERO
    native_kernel = "gatekeeper_kernel"

    def __init__(
        self,
        error_threshold: int,
        count_window: int = COUNT_WINDOW,
        max_zero_run: int = 2,
    ):
        super().__init__(error_threshold)
        if int(count_window) < 1:
            raise ValueError(f"count_window must be at least 1, got {count_window}")
        if int(max_zero_run) not in (1, 2):
            raise ValueError(f"max_zero_run must be 1 or 2, got {max_zero_run}")
        self.count_window = int(count_window)
        self.max_zero_run = int(max_zero_run)

    def estimate_edits_codes(self, read_codes: np.ndarray, ref_codes: np.ndarray) -> int:
        mask_set = build_mask_set(
            read_codes,
            ref_codes,
            self.error_threshold,
            edge_policy=self.edge_policy,
            max_zero_run=self.max_zero_run,
        )
        return count_set_windows(mask_set.final(), window=self.count_window)

    def estimate_edits_words(
        self,
        read_words: np.ndarray,
        ref_words: np.ndarray,
        length: int,
        tier: str = DEFAULT_KERNEL_TIER,
    ) -> np.ndarray:
        """GateKeeper estimates of packed word arrays (the batch path).

        ``tier`` selects the kernel tier; both tiers return bit-identical
        estimates.
        """
        kernel, _ = resolve("gatekeeper_kernel", tier)
        return kernel(
            read_words,
            ref_words,
            length,
            self.error_threshold,
            self.edge_policy == EdgePolicy.ONE,
            self.count_window,
            self.max_zero_run,
        )
