"""Original GateKeeper pre-alignment filter and the GateKeeper word kernel.

This is the baseline algorithm of Alser et al. (Bioinformatics 2017) that
GateKeeper-GPU improves upon.  The implementation follows the published
description: Hamming mask plus ``2e`` shifted masks, amendment of short zero
streaks, AND across all masks and a windowed look-up-table edit count.  The
bit positions vacated by the shifts are left 0 (``EdgePolicy.ZERO``), which is
the accuracy weakness that the GateKeeper-GPU leading/trailing amendment
fixes.

The whole family (GateKeeper, GateKeeper-GPU, SHD) runs one batch kernel,
:func:`gatekeeper_kernel`.  The CUDA kernel runs one filtration per thread
and, since a thread cannot hold a 200-bit register the way the FPGA does,
repairs every shift across its word boundaries with explicit carry transfers
(paper Section 3.4: "there are 2e shifts and 2e carry-bit operations" per
filtration).  The NumPy kernel takes the CPU analogue of one thread per
filtration instead: it bit-slices each block of 64 pairs once
(:func:`repro.filters.packed.bit_planes`), so one ``uint64`` word holds one
bit of one base for 64 pairs and each pair is one bit position.  A shift by
``k`` bases is then an offset of ``k`` rows — a view, with no carry to
transfer — and amendment, edge forcing, the AND across masks and the window
count are boolean operations on whole rows.  The per-base mask pipeline of
:mod:`repro.filters.masks` stays as the scalar reference
(:meth:`GateKeeperFilter.estimate_edits_codes`); the property tests pin the
kernel to it bit for bit.
"""

from __future__ import annotations

import numpy as np

from .base import PreAlignmentFilter
from .bitvector import count_set_windows
from .masks import EdgePolicy, build_mask_set
from .native import DEFAULT_KERNEL_TIER, resolve
from .packed import amend_planes, bit_planes, count_plane_windows, shifted_mismatch_planes

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
    native pair.  The pair-major word arrays are bit-sliced once
    (:func:`~repro.filters.packed.bit_planes`): row ``j`` of a plane holds
    one code bit of base ``j`` for 64 pairs.  Each of the ``2e+1`` masks is
    then two XORs and an OR of row-offset views (a shift by ``k`` bases is
    an offset of ``k`` rows), written into a buffer with two zero rows at
    each end and amended there, edge-forced (``edge_one``) by a row-slice
    assignment and ANDed into one accumulator, whose set bits are counted
    in ``count_window``-base windows.  The returned int32 estimates are
    bit-identical to the Numba twin's.
    """
    length = int(length)
    read, ref = bit_planes(read_words, ref_words, length)
    padded = np.zeros((length + 4, read.shape[-1]), dtype=np.uint64)
    mask = padded[2:-2]
    diff = np.empty_like(read)
    final = scratch = None
    for shift in [0] + [s for k in range(1, int(error_threshold) + 1) for s in (k, -k)]:
        # Row j compares read[j - shift] with ref[j]; the rows with no read
        # base are vacated and stay 0 until after amendment, exactly as the
        # scalar reference does.
        vacated = shifted_mismatch_planes(read, ref, shift, mask, diff)
        mask[vacated] = 0
        amended = amend_planes(padded, max_zero_run, out=scratch)
        if edge_one:
            amended[vacated] = ~np.uint64(0)
        if final is None:
            final = amended
        else:
            final &= amended
            scratch = amended
    return count_plane_windows(final, count_window)[: len(read_words)]


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
