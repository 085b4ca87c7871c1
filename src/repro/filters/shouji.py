"""Shouji pre-alignment filter.

Shouji (Alser et al., Bioinformatics 2019) identifies the common subsequences
between the read and the candidate reference segment using a *neighborhood
map*: a ``(2e+1) x n`` binary matrix whose row ``i`` marks the mismatches
along diagonal ``i - e``.  A sliding window of four columns moves across the
map; in every window the diagonal sub-segment containing the most zeros is
accepted into the Shouji bit-vector.  The number of positions never covered
by an accepted zero approximates the edit distance; if it exceeds the
threshold the pair is rejected.

The batch path (:meth:`ShoujiFilter.estimate_edits_words`) works on the
word-major packed arrays: the default four-column window aligns exactly with
the bytes of the 2-bit-lane representation, so the whole window scan
collapses into per-byte popcounts plus a minimum over diagonals — no
per-base array is built.  The per-base window scan
(:meth:`ShoujiFilter.estimate_edits_codes`) is the scalar reference; a window
contributes its best diagonal's count of ones on both paths, so their
estimates are identical.
"""

from __future__ import annotations

import numpy as np

from .base import PreAlignmentFilter
from .packed import neighborhood_lanes, popcount, unpack_lanes, word_major

__all__ = ["ShoujiFilter", "neighborhood_map", "neighborhood_map_batch"]


def neighborhood_map(read_codes: np.ndarray, ref_codes: np.ndarray, error_threshold: int) -> np.ndarray:
    """Build the ``(2e+1, n)`` neighborhood map of a pair.

    Row ``i`` corresponds to diagonal offset ``d = i - e`` and holds 0 where
    ``read[j] == ref[j + d]`` (a common character on that diagonal) and 1
    otherwise.  Comparisons that fall outside the reference segment are 1.
    """
    read_codes = np.asarray(read_codes, dtype=np.uint8)
    ref_codes = np.asarray(ref_codes, dtype=np.uint8)
    return neighborhood_map_batch(
        read_codes[np.newaxis, :], ref_codes[np.newaxis, :], error_threshold
    )[0]


def neighborhood_map_batch(
    read_codes: np.ndarray, ref_codes: np.ndarray, error_threshold: int
) -> np.ndarray:
    """Neighborhood maps of a batch: ``(n_pairs, 2e+1, n)`` uint8 array.

    The batched analogue of :func:`neighborhood_map`; row ``i`` of each pair's
    map marks the mismatches along diagonal ``i - e``.
    """
    read_codes = np.asarray(read_codes, dtype=np.uint8)
    ref_codes = np.asarray(ref_codes, dtype=np.uint8)
    if read_codes.shape != ref_codes.shape:
        raise ValueError("read and reference code arrays must have the same shape")
    n_pairs, n = read_codes.shape
    e = int(error_threshold)
    nmap = np.ones((n_pairs, 2 * e + 1, n), dtype=np.uint8)
    for i in range(2 * e + 1):
        d = i - e
        lo = max(0, -d)
        hi = min(n, n - d)
        if hi > lo:
            nmap[:, i, lo:hi] = (
                read_codes[:, lo:hi] != ref_codes[:, lo + d : hi + d]
            ).astype(np.uint8)
    return nmap


class ShoujiFilter(PreAlignmentFilter):
    """Shouji: sliding-window common-subsequence filter.

    Parameters
    ----------
    error_threshold:
        Edit threshold.
    window:
        Width of the sliding search window in columns (4 in the paper); at
        least 1.
    """

    name = "Shouji"

    def __init__(self, error_threshold: int, window: int = 4):
        super().__init__(error_threshold)
        if int(window) < 1:
            raise ValueError(f"window must be at least 1, got {window}")
        self.window = int(window)

    def estimate_edits_codes(self, read_codes: np.ndarray, ref_codes: np.ndarray) -> int:
        nmap = neighborhood_map(read_codes, ref_codes, self.error_threshold)
        return int(self._scan_windows(nmap[np.newaxis])[0])

    def _scan_windows(self, nmap: np.ndarray) -> np.ndarray:
        """Sliding-window scan over a ``(n_pairs, 2e+1, n)`` neighborhood map.

        Every window's best diagonal is picked per pair with ``argmax`` over
        the per-diagonal zero counts (first maximum wins, i.e. the leftmost
        diagonal, as in the scalar reference); the chosen sub-segments' set
        bits accumulate into the Shouji bit-vector.
        """
        n_pairs, _, n = nmap.shape
        shouji_vector = np.ones((n_pairs, n), dtype=np.uint8)
        w = self.window
        for start in range(0, n, w):
            end = min(start + w, n)
            block = nmap[:, :, start:end]  # (n_pairs, 2e+1, window)
            zeros_per_diag = (block == 0).sum(axis=2)  # (n_pairs, 2e+1)
            best_diag = zeros_per_diag.argmax(axis=1)  # (n_pairs,)
            chosen = np.take_along_axis(
                block, best_diag[:, np.newaxis, np.newaxis], axis=1
            )[:, 0, :]
            # Accept the zeros of the best diagonal sub-segment into the
            # Shouji bit-vector.
            shouji_vector[:, start:end] &= (chosen != 0).astype(np.uint8)
        return shouji_vector.sum(axis=1).astype(np.int32)

    def estimate_edits_words(
        self, read_words: np.ndarray, ref_words: np.ndarray, length: int
    ) -> np.ndarray:
        """Packed-word Shouji scan over pre-encoded word arrays.

        With the paper's four-column window, every window is exactly one byte
        of the word-major lane representation (4 bases x 2 bits): the
        per-diagonal zero count of a window is ``4 - popcount(byte)``, the
        best diagonal is the one with the fewest set lanes and the estimate is
        the sum of those minima (which diagonal wins a tie does not change
        the count).  Other window widths run the per-base window scan on
        unpacked lanes.
        """
        n_pairs = read_words.shape[0]
        if length == 0:
            return np.zeros(n_pairs, dtype=np.int32)
        lanes = neighborhood_lanes(
            word_major(read_words), word_major(ref_words), length, self.error_threshold
        )
        if self.window != 4:
            # Window widths other than one byte: reuse the per-base scan.
            return self._scan_windows(unpack_lanes(lanes.transpose(1, 2, 0), length))
        # Bytes beyond the sequence length hold no lanes (neighborhood_lanes
        # clears padding), so they contribute zero to every diagonal and to
        # the final sum alike.  The chosen diagonal's count is the minimum.
        window_counts = popcount(lanes.view(np.uint8)).min(axis=0)
        return window_counts.reshape(lanes.shape[1], n_pairs, 8).sum(
            axis=(0, 2), dtype=np.int32
        )
