"""Reference genome container with ``N``-region tracking and segment extraction.

The mrFAST integration (paper Section 3.5) encodes and loads the reference
into unified memory once, recording the locations of ``N`` bases so that
candidate segments overlapping them can be passed through the filter
unevaluated.  This class provides the host-side equivalent: it keeps the
reference's batch codes (one byte per base) and the sorted positions of its
non-ACGT bases, and :meth:`ReferenceGenome.segment_codes` gathers the coded
segments of a block of candidate locations from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .alphabet import UNKNOWN_BASE
from .encoding import encode_codes, gather_windows, non_acgt_positions
from .sequence import Sequence

__all__ = ["ReferenceGenome"]


@dataclass
class ReferenceGenome:
    """A single-contig (or concatenated multi-contig) reference genome.

    Parameters
    ----------
    name:
        Contig / genome name.
    bases:
        The reference sequence as an upper-case string.

    Attributes
    ----------
    codes:
        The batch codes of :attr:`bases`, one byte per base
        (:func:`~repro.genomics.encoding.encode_codes`), computed once.
    undefined_positions:
        Sorted positions of the bases other than A/C/G/T.
    """

    name: str
    bases: str
    codes: np.ndarray = field(init=False, repr=False, compare=False)
    undefined_positions: np.ndarray = field(init=False, repr=False, compare=False)
    _n_positions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.bases = self.bases.upper()
        self.codes = encode_codes(self.bases)
        self.undefined_positions = non_acgt_positions(self.codes)
        self._n_positions = self.undefined_positions[
            self.codes[self.undefined_positions] == ord(UNKNOWN_BASE)
        ]

    # ------------------------------------------------------------------ #
    # Basic container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.bases)

    def __getitem__(self, item) -> str:
        return self.bases[item]

    @classmethod
    def from_sequence(cls, sequence: Sequence) -> "ReferenceGenome":
        """Build a reference genome from a :class:`Sequence` record."""
        return cls(name=sequence.name, bases=sequence.bases)

    @classmethod
    def concatenate(cls, sequences: list[Sequence], spacer_n: int = 0) -> "ReferenceGenome":
        """Concatenate contigs into one coordinate space, optionally separated by ``N`` runs."""
        spacer = UNKNOWN_BASE * spacer_n
        bases = spacer.join(s.bases for s in sequences)
        name = "+".join(s.name for s in sequences) or "empty"
        return cls(name=name, bases=bases)

    # ------------------------------------------------------------------ #
    # N-region bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def n_positions(self) -> np.ndarray:
        """Sorted positions of ``N`` bases in the reference."""
        return self._n_positions

    def segment_has_n(self, start: int, length: int) -> bool:
        """True if the segment ``[start, start+length)`` overlaps an ``N`` base."""
        if self._n_positions.size == 0:
            return False
        left = np.searchsorted(self._n_positions, start, side="left")
        right = np.searchsorted(self._n_positions, start + length, side="left")
        return bool(right > left)

    # ------------------------------------------------------------------ #
    # Segment extraction
    # ------------------------------------------------------------------ #
    def segment(self, start: int, length: int) -> str:
        """Extract a candidate reference segment, clamped to genome bounds.

        Segments that would run off either end are padded with ``N`` to
        ``length`` bases, so the pair becomes *undefined* and is passed to
        verification, mirroring how mrFAST handles boundary candidates.
        """
        lo, hi = max(start, 0), min(start + length, len(self.bases))
        if lo == start and hi == start + length:
            return self.bases[lo:hi]
        core = self.bases[lo:hi] if lo < hi else ""
        return (UNKNOWN_BASE * min(lo - start, length) + core).ljust(length, UNKNOWN_BASE)

    def segment_codes(
        self, starts: np.ndarray, length: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batch codes and undefined mask of the segments at ``starts``.

        Row ``i`` equals the codes of :meth:`segment` ``(starts[i], length)``:
        a segment that runs off either end is padded with ``N`` and is
        undefined, as is one holding a base other than A/C/G/T.  In-bounds
        rows are gathered from :attr:`codes` by
        :func:`~repro.genomics.encoding.gather_windows`.
        """
        starts = np.asarray(starts, dtype=np.int64)
        last = self.codes.size - length
        outside = np.flatnonzero((starts < 0) | (starts > last))
        if last < 0:  # every segment runs past the reference
            codes = np.full((starts.size, length), ord(UNKNOWN_BASE), dtype=np.uint8)
            undefined = np.ones(starts.size, dtype=bool)
        else:
            codes, undefined = gather_windows(
                self.codes, self.undefined_positions, np.clip(starts, 0, last), length
            )
        # Boundary candidates are a handful per block: pad each with N.
        for row in outside.tolist():
            start = int(starts[row])
            lo, hi = max(start, 0), min(start + length, self.codes.size)
            codes[row] = ord(UNKNOWN_BASE)
            if hi > lo:
                codes[row, lo - start : hi - start] = self.codes[lo:hi]
        undefined[outside] = True
        return codes, undefined
