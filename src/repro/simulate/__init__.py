"""Synthetic data substrate: genomes, reads and candidate-pair pools.

Candidate-pair pools (:func:`generate_pair_dataset`, :func:`build_dataset`)
are drawn in seeded blocks of ``pairs.PAIR_BLOCK`` pairs, so the pool for a
smaller ``n_pairs`` is a row prefix of a larger one with the same seed.
Reference genomes and simulated reads each draw from one seeded generator.
"""

from .._defaults import DEFAULT_N_PAIRS
from .datasets import PAPER_DATASETS, DatasetSpec, build_dataset
from .genome import GenomeProfile, generate_reference, generate_sequence
from .mutations import MutationProfile, apply_exact_edits, apply_profile
from .pairs import (
    PairDataset,
    PairProfile,
    bwamem_like_profile,
    generate_pair_dataset,
    minimap2_like_profile,
    mrfast_like_profile,
)
from .reads import ReadSimulator, simulate_reads

__all__ = [
    "DEFAULT_N_PAIRS",
    "PAPER_DATASETS",
    "DatasetSpec",
    "build_dataset",
    "GenomeProfile",
    "generate_reference",
    "generate_sequence",
    "MutationProfile",
    "apply_exact_edits",
    "apply_profile",
    "PairDataset",
    "PairProfile",
    "bwamem_like_profile",
    "generate_pair_dataset",
    "minimap2_like_profile",
    "mrfast_like_profile",
    "ReadSimulator",
    "simulate_reads",
]
