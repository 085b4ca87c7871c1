"""Bit-vector utilities shared by the GateKeeper family of filters.

Two representations are used in this code base:

* **per-base boolean masks** (NumPy ``uint8``/``bool`` arrays, one element per
  base) — this module; the clearest form, used only by the filters' scalar
  reference paths (``estimate_edits_codes``), the test oracle;
* **packed word arrays** (``uint64`` words, two bits per base) — the form the
  CUDA kernel works in and every filter's batch kernel runs on; those live in
  :mod:`repro.filters.packed` and are checked against this module by property
  tests.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "hamming_mask",
    "shifted_mask",
    "amend_mask",
    "count_set_windows",
    "count_one_runs",
    "longest_zero_run",
    "zero_run_lengths",
]

# --------------------------------------------------------------------------- #
# Per-base boolean mask helpers
# --------------------------------------------------------------------------- #


def hamming_mask(read_codes: np.ndarray, ref_codes: np.ndarray) -> np.ndarray:
    """Per-base mismatch mask (1 = mismatch) between two equal-length code arrays."""
    read_codes = np.asarray(read_codes)
    ref_codes = np.asarray(ref_codes)
    if read_codes.shape != ref_codes.shape:
        raise ValueError("code arrays must have the same shape")
    return (read_codes != ref_codes).astype(np.uint8)


def shifted_mask(
    read_codes: np.ndarray,
    ref_codes: np.ndarray,
    shift: int,
    vacant_value: int = 0,
) -> np.ndarray:
    """Mismatch mask for the read shifted by ``shift`` bases against the reference.

    ``shift > 0`` models a deletion mask (the read is moved towards higher
    indices: position ``j`` compares ``read[j - shift]`` with ``ref[j]``);
    ``shift < 0`` models an insertion mask.  Positions with no read base to
    compare (the *vacant* leading/trailing positions the paper discusses) are
    filled with ``vacant_value`` — the original GateKeeper leaves them 0, the
    GateKeeper-GPU improvement forces them to 1 after amendment.
    """
    n = len(read_codes)
    mask = np.full(n, vacant_value, dtype=np.uint8)
    k = abs(shift)
    if k >= n:
        return mask
    if shift > 0:
        mask[k:] = (read_codes[: n - k] != ref_codes[k:]).astype(np.uint8)
    elif shift < 0:
        mask[: n - k] = (read_codes[k:] != ref_codes[: n - k]).astype(np.uint8)
    else:
        mask[:] = (read_codes != ref_codes).astype(np.uint8)
    return mask


def amend_mask(mask: np.ndarray, max_zero_run: int = 2) -> np.ndarray:
    """Amend a mask by flipping short streaks of 0s (flanked by 1s) into 1s.

    GateKeeper/SHD consider streaks of ``max_zero_run`` or fewer zeros between
    two ones uninformative and amend them away so that the final AND across
    masks does not hide errors (paper Section 2.1).  Streaks touching either
    boundary are left untouched.
    """
    mask = np.asarray(mask, dtype=np.uint8)
    amended = mask.copy()
    n = len(mask)
    run_start = None
    for j in range(n):
        if mask[j] == 0:
            if run_start is None:
                run_start = j
        else:
            if run_start is not None:
                run_len = j - run_start
                flanked_left = run_start > 0 and mask[run_start - 1] == 1
                if flanked_left and run_len <= max_zero_run:
                    amended[run_start:j] = 1
                run_start = None
    return amended


def count_set_windows(mask: np.ndarray, window: int = 4) -> int:
    """Count non-overlapping ``window``-base windows that contain a set bit.

    This is the Python analogue of GateKeeper's "window approach with a
    look-up table": the final bit-vector is scanned in fixed-size windows and
    each window contributes at most one edit to the approximation, which keeps
    the filter conservative (it underestimates the edit distance and therefore
    never rejects a truly similar pair because of a locally dense error
    signature).
    """
    mask = np.asarray(mask, dtype=np.uint8)
    n = len(mask)
    if n == 0:
        return 0
    n_windows = -(-n // window)
    padded = np.zeros(n_windows * window, dtype=np.uint8)
    padded[:n] = mask
    return int(np.any(padded.reshape(n_windows, window), axis=1).sum())


def count_one_runs(mask: np.ndarray) -> int:
    """Count maximal runs of consecutive 1s in ``mask``."""
    mask = np.asarray(mask, dtype=np.uint8)
    if len(mask) == 0:
        return 0
    starts = np.flatnonzero(np.diff(np.concatenate(([0], mask))) == 1)
    return int(len(starts))


def zero_run_lengths(mask: np.ndarray) -> list[tuple[int, int]]:
    """Return ``(start, length)`` of every maximal run of 0s in ``mask``."""
    mask = np.asarray(mask, dtype=np.uint8)
    runs: list[tuple[int, int]] = []
    n = len(mask)
    j = 0
    while j < n:
        if mask[j] == 0:
            start = j
            while j < n and mask[j] == 0:
                j += 1
            runs.append((start, j - start))
        else:
            j += 1
    return runs


def longest_zero_run(mask: np.ndarray, start: int = 0, end: int | None = None) -> tuple[int, int]:
    """Return ``(start, length)`` of the longest run of 0s within ``[start, end)``.

    Returns ``(start, 0)`` if the interval contains no zero.  Ties are broken
    towards the leftmost run, matching MAGNET's deterministic extraction.
    """
    mask = np.asarray(mask, dtype=np.uint8)
    if end is None:
        end = len(mask)
    best_start, best_len = start, 0
    j = start
    while j < end:
        if mask[j] == 0:
            run_start = j
            while j < end and mask[j] == 0:
                j += 1
            if j - run_start > best_len:
                best_start, best_len = run_start, j - run_start
        else:
            j += 1
    return best_start, best_len
