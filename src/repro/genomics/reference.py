"""Reference genome container with ``N``-region tracking and segment extraction.

The mrFAST integration (paper Section 3.5) encodes and loads the reference
into unified memory once, recording the locations of ``N`` bases so that
candidate segments overlapping them can be passed through the filter
unevaluated.  This class provides the host-side equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .alphabet import UNKNOWN_BASE
from .encoding import encode_batch
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
    """

    name: str
    bases: str
    _n_positions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.bases = self.bases.upper()
        raw = np.frombuffer(self.bases.encode("ascii"), dtype=np.uint8)
        self._n_positions = np.flatnonzero(raw == ord(UNKNOWN_BASE))

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

        Segments that would run off either end are padded with ``N`` so the
        pair becomes *undefined* and is passed to verification, mirroring how
        mrFAST handles boundary candidates.
        """
        end = start + length
        if start >= 0 and end <= len(self.bases):
            return self.bases[start:end]
        left_pad = max(0, -start)
        right_pad = max(0, end - len(self.bases))
        core = self.bases[max(0, start) : min(end, len(self.bases))]
        return UNKNOWN_BASE * left_pad + core + UNKNOWN_BASE * right_pad

    def segments(self, starts: np.ndarray | list[int], length: int) -> list[str]:
        """Extract many candidate segments of equal ``length``."""
        return [self.segment(int(s), length) for s in starts]

    def encode_segments(self, starts: np.ndarray | list[int], length: int, word_bits: int = 64):
        """Encode many segments into a word-array batch (device-style encoding)."""
        return encode_batch(self.segments(starts, length), word_bits=word_bits)
