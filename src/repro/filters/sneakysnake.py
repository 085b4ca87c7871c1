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
pay one unit to cross the next column.  The batch path
(:meth:`SneakySnakeFilter.estimate_edits_words`) builds the chip maze
bit-parallel as word-major obstacle lanes
(:func:`repro.filters.packed.neighborhood_lanes`) and advances all pairs'
greedy walks in lockstep on those words: at each step a diagonal's next
obstacle is the first set lane at or after the pair's column, which one
leading-zero count of the first non-zero word finds
(:func:`repro.filters.packed.first_set_lane`), so no per-base
``(n_pairs, 2e+1, length)`` array is ever built.  It reproduces the scalar
reference (:meth:`SneakySnakeFilter.estimate_edits_codes`, a
``minimum.accumulate`` scan over the per-base neighborhood map) exactly,
including the early exit once a pair's estimate exceeds the threshold.
"""

from __future__ import annotations

import numpy as np

from .base import PreAlignmentFilter
from .native import DEFAULT_KERNEL_TIER, resolve
from .packed import first_set_lane, neighborhood_lanes, word_major
from .shouji import neighborhood_map

__all__ = ["SneakySnakeFilter", "sneakysnake_kernel"]

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


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


def _route_words(lanes: np.ndarray, n: int, error_threshold: int) -> np.ndarray:
    """Greedy routing on the obstacle words, all pairs in lockstep.

    ``lanes`` is the ``(2e+1, n_words, n_pairs)`` chip maze of
    :func:`repro.filters.packed.neighborhood_lanes`.  From column ``c`` a
    diagonal's next obstacle is the first set lane at or after ``c``: the
    leading-zero count of its word with the lanes before ``c`` cleared, or,
    when that word is clear, the diagonal's first obstacle in a later word
    (precomputed once per word, back to front).  The signal travels to the
    farthest next obstacle over all diagonals and pays one edit to cross it,
    exactly as :meth:`SneakySnakeFilter._route` does on the per-base runs.
    """
    n_diagonals, n_words, n_pairs = lanes.shape
    first_in_word = first_set_lane(lanes)
    # next_from_word[:, w]: each diagonal's first obstacle in words >= w (n if none).
    next_from_word = np.empty((n_diagonals, n_words + 1, n_pairs), dtype=np.int32)
    next_from_word[:, n_words] = n
    for w in range(n_words - 1, -1, -1):
        next_from_word[:, w] = np.where(
            first_in_word[:, w] < 32, first_in_word[:, w] + 32 * w, next_from_word[:, w + 1]
        )
    # Each step gathers one word per diagonal and pair, at flat index
    # word * n_pairs + pair.
    lanes = lanes.reshape(n_diagonals, n_words * n_pairs)
    next_from_word = next_from_word.reshape(n_diagonals, (n_words + 1) * n_pairs)

    edits = np.zeros(n_pairs, dtype=np.int32)
    pairs = np.arange(n_pairs if n > 0 else 0)
    column = np.zeros(pairs.size, dtype=np.int64)
    while pairs.size:
        word = column >> 5
        at = word * n_pairs + pairs
        # Clear the lanes before the column (bits above its 2-bit group).
        tail = _ALL_ONES >> (2 * (column & 31)).astype(np.uint64)
        in_word = first_set_lane(lanes.take(at, axis=1) & tail)
        reach = np.where(
            in_word < 32, in_word + 32 * word, next_from_word.take(at + n_pairs, axis=1)
        ).max(axis=0)
        # Must cross an obstacle column: one edit.
        crossing = reach < n
        edits[pairs] += crossing
        column = reach + crossing
        keep = (column < n) & (edits[pairs] <= error_threshold)
        pairs, column = pairs[keep], column[keep]
    return edits


def sneakysnake_kernel(
    read_words: np.ndarray,
    ref_words: np.ndarray,
    length: int,
    error_threshold: int,
) -> np.ndarray:
    """Pure-NumPy SneakySnake estimates for a batch of packed pairs.

    The registered reference implementation of the ``sneakysnake_kernel``
    native pair: the chip maze is built bit-parallel from the word-major
    arrays and routed in lockstep on its obstacle words, returning int32
    estimates bit-identical to the Numba twin's per-pair greedy walk.
    """
    lanes = neighborhood_lanes(
        word_major(read_words), word_major(ref_words), length, error_threshold
    )
    return _route_words(lanes, length, int(error_threshold))


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

        The neighborhood map rows are shifted-XOR lane masks of the 2-bit word
        arrays, so no per-base comparison is ever performed.  ``tier`` selects
        the kernel tier; both tiers return bit-identical estimates.
        """
        n_pairs = read_words.shape[0]
        if length == 0:
            return np.zeros(n_pairs, dtype=np.int32)
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
