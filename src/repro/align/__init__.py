"""Sequence alignment and verification substrate (the Edlib/DP ground truth)."""

from .banded import banded_edit_distance, banded_edit_distances, within_threshold
from .edit_distance import dp_edit_distance, edit_distance, myers_edit_distance
from .verification import (
    VerificationResult,
    Verifier,
    ground_truth_distances,
    ground_truth_labels,
)

__all__ = [
    "banded_edit_distance",
    "banded_edit_distances",
    "within_threshold",
    "dp_edit_distance",
    "edit_distance",
    "myers_edit_distance",
    "VerificationResult",
    "Verifier",
    "ground_truth_distances",
    "ground_truth_labels",
]
