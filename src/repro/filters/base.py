"""Common interfaces for pre-alignment filters.

A *pre-alignment filter* examines a read / candidate-reference-segment pair
and decides whether the pair could possibly be within ``error_threshold``
edits.  Pairs rejected by the filter skip the expensive dynamic-programming
verification stage of the mapper; pairs accepted by the filter continue to
verification, which computes the exact edit distance.

The contract all filters in this package aim for (and the paper evaluates) is

* **no false rejects** — a pair whose true edit distance is within the
  threshold must never be rejected, otherwise mappings are lost;
* **as few false accepts as possible** — every falsely accepted pair wastes
  a verification.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..genomics.alphabet import contains_unknown
from ..genomics.encoding import EncodedPairBatch, encode_to_codes, pack_codes_to_words
from ..genomics.sequence import SequencePair
from .native import DEFAULT_KERNEL_TIER

__all__ = ["FilterDecision", "FilterResult", "PreAlignmentFilter"]


class FilterDecision(enum.IntEnum):
    """Outcome of one filtration."""

    REJECT = 0
    ACCEPT = 1
    #: Pair contained an ``N`` base; passed through without filtration.
    UNDEFINED = 2

    @property
    def passes(self) -> bool:
        """True if the pair proceeds to verification (accepted or undefined)."""
        return self is not FilterDecision.REJECT


@dataclass(frozen=True)
class FilterResult:
    """Decision and approximate edit distance for a single pair."""

    decision: FilterDecision
    estimated_edits: int

    @property
    def accepted(self) -> bool:
        return self.decision.passes


class PreAlignmentFilter(ABC):
    """Base class for all pre-alignment filters.

    Subclasses implement :meth:`estimate_edits_codes`, the approximate
    edit-distance computation on a 2-bit-encoded pair that is already known to
    be defined (no ``N``).  It is the per-base reference path: the test
    oracle, next to :mod:`repro.filters.bitvector` / :mod:`repro.filters.masks`.

    Filters with a bit-parallel kernel also define
    ``estimate_edits_words(read_words, ref_words, length)`` operating on the
    packed ``uint64`` word arrays of an
    :class:`~repro.genomics.encoding.EncodedPairBatch`.  That kernel is the
    filter's only batch path: :meth:`filter_batch` and
    :meth:`estimate_edits_batch` both run it, and it must reproduce
    :meth:`estimate_edits_codes` exactly (property-tested for the built-in
    filters).  Filters without one fall back to a per-pair loop.
    """

    #: Human readable name used by the analysis tables.
    name: str = "filter"

    #: Name of this filter's registered kernel pair in
    #: :mod:`repro.filters.native`, or ``None`` when the filter has no native
    #: tier.  When set, ``estimate_edits_words`` accepts a ``tier`` keyword
    #: and the engine threads its configured ``kernel_tier`` through it.
    native_kernel: "str | None" = None

    def __init__(self, error_threshold: int):
        if error_threshold < 0:
            raise ValueError("error_threshold must be non-negative")
        self.error_threshold = int(error_threshold)

    # ------------------------------------------------------------------ #
    # Core API
    # ------------------------------------------------------------------ #
    @abstractmethod
    def estimate_edits_codes(
        self, read_codes: np.ndarray, ref_codes: np.ndarray
    ) -> int:
        """Approximate edit distance of one pair given as per-base 2-bit codes."""

    def estimate_edits(self, read: str, reference_segment: str) -> int:
        """Return the filter's approximation of the pair's edit distance."""
        return self.estimate_edits_codes(
            encode_to_codes(read), encode_to_codes(reference_segment)
        )

    def estimate_edits_batch(
        self, read_codes: np.ndarray, ref_codes: np.ndarray
    ) -> np.ndarray:
        """Approximate edit distances of a ``(n_pairs, n_bases)`` code batch.

        Packs the codes into words and runs the filter's word kernel; filters
        without one loop over the per-pair :meth:`estimate_edits_codes`.
        """
        read_codes = np.asarray(read_codes, dtype=np.uint8)
        ref_codes = np.asarray(ref_codes, dtype=np.uint8)
        if read_codes.shape != ref_codes.shape:
            raise ValueError("read and reference code arrays must have the same shape")
        if read_codes.ndim != 2:
            raise ValueError("batch code arrays must be 2-D (n_pairs, n_bases)")
        words_kernel = getattr(self, "estimate_edits_words", None)
        if words_kernel is None:
            return np.array(
                [
                    self.estimate_edits_codes(read_codes[i], ref_codes[i])
                    for i in range(read_codes.shape[0])
                ],
                dtype=np.int32,
            )
        return np.asarray(
            words_kernel(
                pack_codes_to_words(read_codes, word_bits=64),
                pack_codes_to_words(ref_codes, word_bits=64),
                read_codes.shape[1],
            ),
            dtype=np.int32,
        )

    def filter_batch(
        self, pairs: EncodedPairBatch, tier: str = DEFAULT_KERNEL_TIER
    ) -> "tuple[np.ndarray, np.ndarray]":
        """``(estimated_edits, accepted)`` of an encoded pair batch.

        ``pairs`` is an :class:`~repro.genomics.encoding.EncodedPairBatch` or
        a row view of one.  The filter's word kernel runs when it has one
        (``tier`` selects the kernel tier of filters with a ``native_kernel``),
        else :meth:`estimate_edits_batch` on the code arrays.  Undefined
        (``N``-containing) pairs pass with an estimate of 0 — the paper's
        direct pass; every other pair is accepted when its estimate is within
        the threshold.
        """
        if pairs.read_codes.shape != pairs.ref_codes.shape:
            raise ValueError("read and reference code arrays must have the same shape")
        words_kernel = getattr(self, "estimate_edits_words", None)
        if words_kernel is None:
            estimates = self.estimate_edits_batch(pairs.read_codes, pairs.ref_codes)
        else:
            kwargs = {"tier": tier} if self.native_kernel else {}
            estimates = words_kernel(
                pairs.read_words, pairs.ref_words, pairs.length, **kwargs
            )
        undefined = np.asarray(pairs.undefined, dtype=bool)
        estimates = np.where(undefined, 0, estimates).astype(np.int32)
        return estimates, undefined | (estimates <= self.error_threshold)

    def filter_pair(self, read: str, reference_segment: str) -> FilterResult:
        """Filter one pair, handling undefined (``N``-containing) pairs."""
        if len(read) != len(reference_segment):
            raise ValueError(
                "read and reference segment must have equal length "
                f"({len(read)} != {len(reference_segment)})"
            )
        if contains_unknown(read) or contains_unknown(reference_segment):
            return FilterResult(FilterDecision.UNDEFINED, 0)
        edits = self.estimate_edits(read, reference_segment)
        decision = (
            FilterDecision.ACCEPT if edits <= self.error_threshold else FilterDecision.REJECT
        )
        return FilterResult(decision, edits)

    def filter_pairs(
        self, pairs: Iterable[SequencePair | tuple[str, str]]
    ) -> list[FilterResult]:
        """Filter an iterable of pairs, returning one result per pair."""
        results = []
        for pair in pairs:
            if isinstance(pair, SequencePair):
                read, segment = pair.read, pair.reference_segment
            else:
                read, segment = pair
            results.append(self.filter_pair(read, segment))
        return results

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def accepts(self, read: str, reference_segment: str) -> bool:
        """True if the pair passes the filter (accepted or undefined)."""
        return self.filter_pair(read, reference_segment).accepted

    def accept_count(self, pairs: Sequence[SequencePair | tuple[str, str]]) -> int:
        """Number of pairs in ``pairs`` that pass the filter."""
        return sum(1 for r in self.filter_pairs(pairs) if r.accepted)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(error_threshold={self.error_threshold})"
