"""SneakySnake pre-alignment filter.

SneakySnake (Alser et al., Bioinformatics 2020) reformulates approximate
string matching as a *single net routing* problem: the pair defines a
``(2e+1) x n`` "chip maze" whose row ``i`` marks obstacles (mismatches) along
diagonal ``i - e``; the signal must travel from the first to the last column,
moving freely along obstacle-free cells of any row and paying one unit each
time it must pass through an obstacle column.  The minimum number of paid
columns lower-bounds the edit distance, so comparing it with the threshold
never causes a false reject.

The optimal routing can be computed greedily: from the current column, find
the diagonal with the longest run of obstacle-free cells, travel along it and
pay one unit to cross the next column.  The batch kernel
(:func:`sneakysnake_kernel`) takes the CPU analogue of the paper's one thread
per filtration, as every NumPy kernel here does: it bit-slices each block of
64 pairs once (:func:`repro.filters.packed.bit_planes`), builds the chip
maze as ``(length, 2e+1, n_blocks)`` obstacle words, one bit per pair
(:func:`repro.filters.packed.chip_maze`, which Shouji scans too), and
routes every pair in one sweep over the columns
(:func:`repro.filters.packed.crossing_planes`, three whole-array operations
per column), so no per-base ``(n_pairs, 2e+1, length)`` array is ever
built.  It reproduces the scalar reference
(:meth:`SneakySnakeFilter.estimate_edits_codes`, a ``minimum.accumulate``
scan over the per-base neighborhood map) exactly, including the early exit
once a pair's estimate exceeds the threshold.
"""

from __future__ import annotations

import numpy as np

from .base import PreAlignmentFilter
from .native import DEFAULT_KERNEL_TIER, resolve
from .packed import bit_planes, chip_maze, count_plane_windows, crossing_planes
from .shouji import neighborhood_map

__all__ = ["SneakySnakeFilter", "sneakysnake_kernel"]


def _longest_free_runs(obstacles: np.ndarray) -> np.ndarray:
    """Longest obstacle-free run starting at each column, over all diagonals.

    ``obstacles`` is ``(n_pairs, n_diagonals, n)`` (non-zero = obstacle); the
    result is ``(n_pairs, n)`` int32.  The per-diagonal distance to the next
    obstacle is a reversed ``minimum.accumulate`` of the obstacle positions —
    a single C-level segment scan instead of a Python loop over columns.
    """
    n = obstacles.shape[-1]
    columns = np.arange(n, dtype=np.int32)
    obstacle_pos = np.where(obstacles != 0, columns, np.int32(n))
    next_obstacle = np.minimum.accumulate(obstacle_pos[..., ::-1], axis=-1)[..., ::-1]
    return (next_obstacle - columns).max(axis=1)


def sneakysnake_kernel(
    read_words: np.ndarray,
    ref_words: np.ndarray,
    length: int,
    error_threshold: int,
) -> np.ndarray:
    """Pure-NumPy SneakySnake estimates for a batch of packed pairs.

    The registered reference implementation of the ``sneakysnake_kernel``
    native pair.  The pair-major word arrays are bit-sliced once
    (:func:`~repro.filters.packed.bit_planes`), and the chip maze
    (:func:`~repro.filters.packed.chip_maze`, shared with Shouji) is a
    ``(length, 2e+1, n_blocks)`` tensor: row ``j``, diagonal ``i`` holds the
    obstacle bits of read base ``j`` against reference base ``j + i - e``
    for 64 pairs per word (two XORs and an OR of row-offset views; columns
    outside the reference stay all ones).  One sweep over the columns
    (:func:`~repro.filters.packed.crossing_planes`) finds every pair's
    greedy crossings, and ``min(crossings, e + 1)`` is the walk's early
    exit.  The returned int32 estimates are bit-identical to the Numba
    twin's.
    """
    e = int(error_threshold)
    maze = chip_maze(*bit_planes(read_words, ref_words, int(length)), e)
    crossings = count_plane_windows(crossing_planes(maze), 1)
    return np.minimum(crossings[: len(read_words)], e + 1)


class SneakySnakeFilter(PreAlignmentFilter):
    """SneakySnake: greedy single-net-routing filter."""

    name = "SneakySnake"
    native_kernel = "sneakysnake_kernel"

    def __init__(self, error_threshold: int):
        super().__init__(error_threshold)

    def estimate_edits_codes(self, read_codes: np.ndarray, ref_codes: np.ndarray) -> int:
        nmap = neighborhood_map(read_codes, ref_codes, self.error_threshold)
        n = nmap.shape[-1]
        if n == 0:
            return 0
        return int(self._route(_longest_free_runs(nmap[np.newaxis]), n)[0])

    def estimate_edits_words(
        self,
        read_words: np.ndarray,
        ref_words: np.ndarray,
        length: int,
        tier: str = DEFAULT_KERNEL_TIER,
    ) -> np.ndarray:
        """Packed-word path: the chip maze is built from the encoded words.

        ``tier`` selects the kernel tier; both tiers return bit-identical
        estimates.
        """
        kernel, _ = resolve("sneakysnake_kernel", tier)
        return kernel(read_words, ref_words, length, self.error_threshold)

    def _route(self, longest_run: np.ndarray, n: int) -> np.ndarray:
        """Greedy routing on per-base longest runs (the reference walk).

        A pair leaves the loop when its signal reaches the last column or its
        estimate exceeds the threshold (the scalar early exit).
        """
        e = self.error_threshold
        n_pairs = longest_run.shape[0]
        edits = np.zeros(n_pairs, dtype=np.int32)
        column = np.zeros(n_pairs, dtype=np.int64)
        active = np.ones(n_pairs, dtype=bool)
        while True:
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break
            column[idx] += longest_run[idx, column[idx]]
            crossing = idx[column[idx] < n]
            # Must cross an obstacle column: one edit.
            edits[crossing] += 1
            column[crossing] += 1
            active[idx] = column[idx] < n
            active[crossing] &= edits[crossing] <= e
        return edits
