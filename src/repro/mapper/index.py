"""Sorted-array k-mer index of the reference genome (the mapper's seeding substrate).

mrFAST builds a hash table of fixed-length k-mers of the reference; seeding a
read means looking up its k-mers and collecting the reference positions where
they occur.  Here the table is two arrays: every k-mer packed 2 bits per base
into a uint64 key, sorted, beside the reference position it starts at, so a
lookup is a binary search and a batch of lookups is one vector call.
k-mers holding any byte other than A/C/G/T (``N`` or an IUPAC code) are not
indexed.  Keys are built from the reference's cached batch codes
(:attr:`~repro.genomics.reference.ReferenceGenome.codes`), and queries take
batch codes too, so the reads are encoded once for seeding and filtering.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .._defaults import MAX_SEEDING_K
from ..genomics.encoding import encode_codes
from ..genomics.reference import ReferenceGenome

__all__ = ["KmerIndex"]


def _kmer_keys(windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pack the last axis of ``windows`` (batch codes) into uint64 k-mer keys.

    Returns the keys and a mask of the windows holding a byte other than
    A/C/G/T; the keys of those windows are meaningless.
    """
    keys = np.zeros(windows.shape[:-1], dtype=np.uint64)
    invalid = np.zeros(windows.shape[:-1], dtype=bool)
    for j in range(windows.shape[-1]):
        codes = windows[..., j]
        keys <<= np.uint64(2)
        keys |= codes & 3
        invalid |= codes > 3
    return keys, invalid


class KmerIndex:
    """Every k-mer of the reference as a sorted key array beside its positions.

    ``keys[i]`` is the 2-bit key of the k-mer starting at reference position
    ``positions[i]``; keys ascend, and positions ascend within one key.
    """

    def __init__(self, reference: ReferenceGenome, k: int = 12):
        if k <= 0:
            raise ValueError("k must be positive")
        if k > MAX_SEEDING_K:
            raise ValueError(
                f"k must be at most {MAX_SEEDING_K} (2-bit k-mer keys fill a uint64)"
            )
        if k > len(reference):
            raise ValueError("k cannot exceed the reference length")
        self.reference = reference
        self.k = k
        keys, invalid = _kmer_keys(sliding_window_view(reference.codes, k))
        positions = np.flatnonzero(~invalid).astype(np.int64, copy=False)
        keys = keys[positions]
        # Stable, so the positions of one k-mer stay in ascending order.
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        self.positions = positions[order]

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Number of distinct k-mers indexed."""
        return self._first_of_each_kmer().size

    def __contains__(self, kmer: str) -> bool:
        return len(kmer) == self.k and self.lookup(kmer).size > 0

    def ranges(self, codes: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``[lo, hi)`` slices of :attr:`positions` for the k-mers of ``codes`` at ``starts``.

        ``codes`` are 1-D batch codes
        (:func:`~repro.genomics.encoding.encode_codes`).  Every start is
        searched in one vector call; a k-mer holding a byte other than
        A/C/G/T gets an empty slice.
        """
        keys, invalid = _kmer_keys(sliding_window_view(codes, self.k)[starts])
        # Ascending queries let each binary search start where the last one
        # ended.  For the 6,144 seeds of 1,024 100 bp reads against a 500 kbp,
        # k = 10 index, the argsort and both searches take 1.0-1.3 ms, against
        # 4.1 ms for the two searches unsorted (2-core Xeon, NumPy 2.4).
        order = np.argsort(keys)
        lo = np.empty(keys.size, dtype=np.int64)
        hi = np.empty(keys.size, dtype=np.int64)
        lo[order] = np.searchsorted(self.keys, keys[order], side="left")
        hi[order] = np.searchsorted(self.keys, keys[order], side="right")
        return lo, np.where(invalid, lo, hi)

    def lookup(self, kmer: str) -> np.ndarray:
        """Reference positions where ``kmer`` occurs, ascending (possibly empty)."""
        if len(kmer) != self.k:
            raise ValueError(f"kmer length {len(kmer)} does not match index k={self.k}")
        codes = encode_codes(kmer.encode("ascii", "replace"))
        (lo,), (hi,) = self.ranges(codes, np.zeros(1, dtype=np.int64))
        return self.positions[lo:hi]

    def occurrence_counts(self) -> np.ndarray:
        """Number of occurrences of every indexed k-mer, in key order (repeat statistics)."""
        return np.diff(np.append(self._first_of_each_kmer(), self.keys.size))

    def _first_of_each_kmer(self) -> np.ndarray:
        """Index into :attr:`keys` of the first occurrence of every distinct k-mer."""
        first = np.ones(self.keys.size, dtype=bool)
        first[1:] = self.keys[1:] != self.keys[:-1]
        return np.flatnonzero(first)
