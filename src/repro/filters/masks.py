"""Construction of the 2e+1 Hamming/shifted masks used by the GateKeeper family.

The pipeline (paper Section 2.1 and 3.4) is:

1. encode read and reference segment (2 bits per base);
2. XOR them to obtain the Hamming mask (exact-match detection);
3. for each ``k`` in ``1..e`` produce a deletion mask and an insertion mask by
   shifting the read bit-vector by ``k`` bases and XORing with the reference;
4. OR-fold each 2-bit group so every mask holds one bit per base;
5. *amend* each mask by flipping short streaks of 0s to 1s;
6. (GateKeeper-GPU only) force the bit positions vacated by each shift to 1;
7. AND all ``2e+1`` masks into the final bit-vector;
8. count the approximate number of edits in the final bit-vector.

The functions here operate on per-base code arrays, which is mathematically
identical to the packed bit-vector formulation: they are the scalar reference
of the GateKeeper family, and property tests (``tests/test_packed_kernels.py``,
``tests/test_filters_hypothesis.py``) verify the equivalence with the
word-array kernel :func:`repro.filters.gatekeeper.gatekeeper_kernel`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitvector import amend_mask, shifted_mask

__all__ = ["EdgePolicy", "MaskSet", "build_mask_set", "final_bitvector"]


class EdgePolicy:
    """How the bit positions vacated by a shift are treated.

    ``ZERO``
        Original GateKeeper / SHD behaviour: vacant positions stay 0, which can
        hide errors located at the leading/trailing bases (the final AND sees a
        0 there no matter what the other masks say).
    ``ONE``
        GateKeeper-GPU improvement: after amendment the vacant positions are
        forced to 1 so edge errors remain visible to the final AND.
    """

    ZERO = "zero"
    ONE = "one"


@dataclass
class MaskSet:
    """The amended masks of one filtration plus bookkeeping."""

    masks: np.ndarray  # shape (2e+1, n), uint8
    shifts: np.ndarray  # shape (2e+1,), signed shift of each mask
    error_threshold: int
    edge_policy: str

    @property
    def n_bases(self) -> int:
        return int(self.masks.shape[1])

    def final(self) -> np.ndarray:
        """AND of all amended masks (the final bit-vector)."""
        return np.bitwise_and.reduce(self.masks, axis=0)


def build_mask_set(
    read_codes: np.ndarray,
    ref_codes: np.ndarray,
    error_threshold: int,
    edge_policy: str = EdgePolicy.ZERO,
    max_zero_run: int = 2,
    amend: bool = True,
) -> MaskSet:
    """Build the ``2e+1`` amended masks for one read / reference-segment pair."""
    read_codes = np.asarray(read_codes, dtype=np.uint8)
    ref_codes = np.asarray(ref_codes, dtype=np.uint8)
    if read_codes.shape != ref_codes.shape:
        raise ValueError("read and reference segment must have equal length")
    n = len(read_codes)
    e = int(error_threshold)
    shifts = [0]
    for k in range(1, e + 1):
        shifts.extend([k, -k])
    masks = np.empty((len(shifts), n), dtype=np.uint8)
    for row, shift in enumerate(shifts):
        raw = shifted_mask(read_codes, ref_codes, shift, vacant_value=0)
        amended = amend_mask(raw, max_zero_run=max_zero_run) if amend else raw
        if edge_policy == EdgePolicy.ONE and shift != 0:
            k = abs(shift)
            if shift > 0:
                amended[: min(k, n)] = 1
            else:
                amended[max(0, n - k):] = 1
        masks[row] = amended
    return MaskSet(
        masks=masks,
        shifts=np.asarray(shifts, dtype=np.int64),
        error_threshold=e,
        edge_policy=edge_policy,
    )


def final_bitvector(
    read_codes: np.ndarray,
    ref_codes: np.ndarray,
    error_threshold: int,
    edge_policy: str = EdgePolicy.ZERO,
) -> np.ndarray:
    """Convenience: final ANDed bit-vector of the GateKeeper mask pipeline."""
    return build_mask_set(read_codes, ref_codes, error_threshold, edge_policy).final()
