"""Full-sensitivity seeding (seed-and-extend candidate generation).

mrFAST guarantees full sensitivity within the error threshold ``e`` by the
pigeonhole principle: the read is split into ``e + 1`` non-overlapping seeds,
and any alignment with at most ``e`` edits must contain at least one exactly
matching seed.  Every position where any seed matches the reference therefore
yields a candidate mapping location to be verified (after pre-alignment
filtering).
"""

from __future__ import annotations

import numpy as np

from ..genomics.encoding import encode_codes
from .index import KmerIndex

__all__ = ["Seeder"]


class Seeder:
    """Splits reads into seeds and collects candidate mapping locations."""

    def __init__(self, index: KmerIndex, error_threshold: int, max_candidates: int = 2048):
        if error_threshold < 0:
            raise ValueError("error_threshold must be non-negative")
        if max_candidates < 1:
            raise ValueError("max_candidates must be at least 1")
        self.index = index
        self.error_threshold = error_threshold
        self.max_candidates = max_candidates

    def seed_offsets(self, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The non-overlapping seeds of reads of ``lengths`` bases, read by read.

        Returns every seed's read row and start offset, seeds in read order.
        ``e + 1`` seeds of the index's k-mer length are taken when they fit;
        shorter reads fall back to as many non-overlapping seeds as fit, and a
        read shorter than one k-mer has none.  Seeds are spread evenly from
        offset 0 to the read's end (a lone seed sits at 0), so indels anywhere
        are tolerated.
        """
        k = self.index.k
        lengths = np.asarray(lengths, dtype=np.int64)
        n_seeds = np.minimum(self.error_threshold + 1, lengths // k)
        row = np.repeat(np.arange(lengths.size), n_seeds)
        rank = np.arange(row.size) - np.repeat(np.cumsum(n_seeds) - n_seeds, n_seeds)
        last, span = n_seeds[row] - 1, lengths[row] - k
        # np.linspace(0, span, last + 1).astype(int), read for read: the same
        # float products, and the last seed pinned to the read's end.
        inner = (rank * (span / np.maximum(last, 1))).astype(np.int64)
        return row, np.where((rank == last) & (last > 0), span, inner)

    def candidates(self, read: str) -> np.ndarray:
        """Sorted unique candidate locations of ``read`` on the reference."""
        codes = encode_codes(read.encode("ascii", "replace"))
        _owner, locations = self.candidates_batch(codes, np.array([codes.size]))
        return locations

    def candidates_batch(
        self, codes: np.ndarray, lengths: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Candidate locations of a block of reads, as flat ``(owner, locations)``.

        ``codes`` are the block's reads joined, as 1-D batch codes
        (:func:`~repro.genomics.encoding.encode_codes`), and ``lengths`` the
        reads' lengths.  Entry ``i`` says read ``owner[i]`` (its row in the
        block) may map at ``locations[i]``.  Owners ascend, and each read's
        locations ascend without repeats.  The whole block is seeded in one
        vector pass whatever its read lengths.  Each read keeps its first
        ``max_candidates`` hits in seed order (positions ascending within a
        seed); seeds holding a byte other than A/C/G/T propose nothing.
        """
        lengths = np.asarray(lengths, dtype=np.int64)
        row, offsets = self.seed_offsets(lengths)
        if row.size == 0:
            return row, offsets
        # The seeds of every read go through one index search of the block.
        read_starts = np.cumsum(lengths) - lengths
        lo, hi = self.index.ranges(codes, read_starts[row] + offsets)
        hits = hi - lo
        # Hits of the read's earlier seeds: a running total restarted at each read.
        ahead = np.cumsum(hits) - hits
        before = ahead - ahead[np.searchsorted(row, row)]
        take = np.minimum(hits, np.maximum(self.max_candidates - before, 0))
        # One entry per kept hit: its seed and its rank among that seed's hits.
        seed = np.repeat(np.arange(take.size), take)
        rank = np.arange(seed.size) - np.repeat(np.cumsum(take) - take, take)
        # Sort and deduplicate (owner, location) as one int64 key: a location
        # is at least -max(offsets), so shifting by that keeps keys ordered.
        shift = int(offsets.max())
        shifted = self.index.positions[lo[seed] + rank] + (shift - offsets[seed])
        span = int(shifted.max(initial=0)) + 1
        keys = np.sort(row[seed] * span + shifted)
        keep = np.ones(keys.size, dtype=bool)
        keep[1:] = keys[1:] != keys[:-1]
        owner, shifted = np.divmod(keys[keep], span)
        return owner, shifted - shift
