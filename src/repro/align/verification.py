"""Verification stage and ground-truth labelling.

The :class:`Verifier` is the verification stage (banded edit distance against
a threshold): :meth:`Verifier.verify_batch` checks every survivor of a chunk,
undefined (``N``) pairs included, in vectorised passes over the batch's
codes, which keep every non-ACGT byte distinct; :meth:`Verifier.verify`
checks one pair of strings and is the batch form's test oracle.
:func:`ground_truth_labels` produces the Edlib-style accept/reject labels used
by the accuracy experiments: a pair is labelled *accept* if its exact global
edit distance is within the threshold, *reject* otherwise.  Undefined pairs
(containing ``N``) are labelled accepted, exactly as the paper does when
including undefined pairs in the comparison tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..genomics.alphabet import contains_unknown
from ..genomics.encoding import EncodedPairBatch
from ..genomics.sequence import SequencePair
from .banded import banded_edit_distance, banded_edit_distances
from .edit_distance import edit_distance

__all__ = ["VerificationResult", "Verifier", "ground_truth_labels", "ground_truth_distances"]

#: Rows per banded-DP pass of :meth:`Verifier.verify_batch`.  Memory mode
#: hands the verifier a whole input as one chunk; one block's working set is
#: about ``BLOCK_PAIRS * (4 * length + 9 * (2e + 1))`` bytes (5 MB for
#: 250 bp reads at e = 10).
BLOCK_PAIRS = 4096


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of verifying one pair."""

    edit_distance: int
    accepted: bool


class Verifier:
    """Banded (Ukkonen) verification of read / segment pairs.

    Distances are exact up to ``error_threshold`` and capped at
    ``error_threshold + 1`` above it, which is all the accept decision needs.

    Parameters
    ----------
    error_threshold:
        Maximum edit distance for a pair to be reported as a mapping.
    """

    def __init__(self, error_threshold: int):
        if error_threshold < 0:
            raise ValueError("error_threshold must be non-negative")
        self.error_threshold = int(error_threshold)
        self.pairs_verified = 0

    def verify(self, read: str, reference_segment: str) -> VerificationResult:
        """Verify one pair, returning its edit distance and accept decision."""
        self.pairs_verified += 1
        distance = banded_edit_distance(read, reference_segment, self.error_threshold)
        return VerificationResult(
            edit_distance=distance, accepted=distance <= self.error_threshold
        )

    def verify_batch(self, pairs: EncodedPairBatch, rows: np.ndarray) -> np.ndarray:
        """Capped edit distances (int32) of the pairs ``rows`` of ``pairs``.

        Every row, undefined ones included, is verified by
        :func:`~repro.align.banded.banded_edit_distances` over the batch's
        codes, :data:`BLOCK_PAIRS` rows per pass so the working memory stays
        bounded however many rows a chunk has.  Equal codes mean equal
        upper-cased bytes (an ``N`` matches only an ``N``), so entry ``r`` is
        what :meth:`verify` reports on the upper-cased strings of pair
        ``rows[r]``.
        """
        rows = np.asarray(rows, dtype=np.intp)
        distances = np.empty(len(rows), dtype=np.int32)
        for lo in range(0, len(rows), BLOCK_PAIRS):
            selected = rows[lo : lo + BLOCK_PAIRS]
            distances[lo : lo + BLOCK_PAIRS] = banded_edit_distances(
                pairs.read_codes[selected], pairs.ref_codes[selected], self.error_threshold
            )
        self.pairs_verified += len(rows)
        return distances


def ground_truth_distances(pairs: Sequence[SequencePair | tuple[str, str]]) -> np.ndarray:
    """Exact global edit distance of every pair (Edlib-equivalent)."""
    distances = np.empty(len(pairs), dtype=np.int32)
    for i, pair in enumerate(pairs):
        if isinstance(pair, SequencePair):
            read, segment = pair.read, pair.reference_segment
        else:
            read, segment = pair
        distances[i] = edit_distance(read, segment)
    return distances


def ground_truth_labels(
    pairs: Sequence[SequencePair | tuple[str, str]],
    error_threshold: int,
    undefined_accepted: bool = True,
) -> np.ndarray:
    """Edlib-style accept (True) / reject (False) labels for every pair.

    Undefined pairs are labelled accepted when ``undefined_accepted`` is True,
    matching how the paper folds them into the accepted counts.
    """
    labels = np.empty(len(pairs), dtype=bool)
    for i, pair in enumerate(pairs):
        if isinstance(pair, SequencePair):
            read, segment = pair.read, pair.reference_segment
        else:
            read, segment = pair
        if undefined_accepted and (contains_unknown(read) or contains_unknown(segment)):
            labels[i] = True
            continue
        labels[i] = edit_distance(read, segment) <= error_threshold
    return labels
