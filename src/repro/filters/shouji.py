"""Shouji pre-alignment filter.

Shouji (Alser et al., Bioinformatics 2019) identifies the common subsequences
between the read and the candidate reference segment using a *neighborhood
map*: a ``(2e+1) x n`` binary matrix whose row ``i`` marks the mismatches
along diagonal ``i - e``.  A sliding window of four columns moves across the
map; in every window the diagonal sub-segment containing the most zeros is
accepted into the Shouji bit-vector.  The number of positions never covered
by an accepted zero approximates the edit distance; if it exceeds the
threshold the pair is rejected.

The batch path (:meth:`ShoujiFilter.estimate_edits_words`) runs on the
bit-sliced chip maze that SneakySnake routes
(:func:`repro.filters.packed.chip_maze`, 64 pairs per word), and the window
scan becomes threshold logic on its rows: per window and diagonal, one plane
per count ``k`` marks the pairs with more than ``k`` obstacles there, an AND
over the diagonals keeps what even the best diagonal has, and the estimate is
those planes' set bits, so no per-base array is built.  The per-base window
scan (:meth:`ShoujiFilter.estimate_edits_codes`) is the scalar reference; a
window contributes its best diagonal's count of ones on both paths, so their
estimates are identical.
"""

from __future__ import annotations

import numpy as np

from .base import PreAlignmentFilter
from .packed import bit_planes, chip_maze, count_plane_windows

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
        """Bit-sliced Shouji scan over pre-encoded word arrays.

        ``more[k]`` marks, per window and diagonal of the chip maze, the
        pairs with more than ``k`` obstacles there: each row of the window
        carries level ``k - 1`` into level ``k`` and sets level 0 (rows past
        the length count as no obstacle).  ANDed over the diagonals,
        ``more[k]`` says that even the best diagonal holds more than ``k``,
        so a window's best count is its number of set levels and the
        estimate sums those bits over every window and level.  Which
        diagonal wins a tie does not change the count.
        """
        length, window = int(length), self.window
        maze = chip_maze(*bit_planes(read_words, ref_words, length), self.error_threshold)
        n_windows = -(-length // window)
        n_diagonals, n_blocks = maze.shape[1:]
        # more[k, i, t]: window t of diagonal i holds more than k obstacles.
        more = np.zeros((window, n_diagonals, n_windows, n_blocks), dtype=np.uint64)
        carry = np.empty_like(more[1:])
        for offset in range(min(window, length)):
            rows = maze[offset::window].transpose(1, 0, 2)
            n = rows.shape[1]
            if offset:
                # Levels 0 .. offset - 1 carry into 1 .. offset, all from
                # their values before this row.
                np.bitwise_and(more[:offset, :, :n], rows, out=carry[:offset, :, :n])
                more[1 : offset + 1, :, :n] |= carry[:offset, :, :n]
            more[0, :, :n] |= rows
        best = np.bitwise_and.reduce(more, axis=1)
        counts = count_plane_windows(best.reshape(window * n_windows, n_blocks), 1)
        return counts[: len(read_words)]
