"""Registry of scaled-down analogues of the paper's data sets (Sup. Table S.1).

Each entry describes one of the paper's accuracy / throughput / whole-genome
data sets; :func:`build_dataset` generates a pool with the corresponding read
length and divergence profile.  The paper's pools hold 30 million pairs; the
default size here is much smaller (experiments scale linearly and the shapes
of the accuracy curves stabilise after a few thousand pairs), and every
benchmark accepts an ``n_pairs`` override.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._defaults import DEFAULT_N_PAIRS
from .pairs import (
    PairDataset,
    PairProfile,
    bwamem_like_profile,
    generate_pair_dataset,
    minimap2_like_profile,
    mrfast_like_profile,
)

__all__ = ["DatasetSpec", "PAPER_DATASETS", "build_dataset"]


@dataclass(frozen=True)
class DatasetSpec:
    """Description of one paper data set."""

    name: str
    read_length: int
    mapper: str  # "mrfast" | "minimap2" | "bwamem"
    seeding_threshold: int
    description: str
    edit_profile: str  # "low" | "high" | "throughput"

    def profile(self) -> PairProfile:
        if self.mapper == "minimap2":
            return minimap2_like_profile(self.read_length)
        if self.mapper == "bwamem":
            return bwamem_like_profile(self.read_length)
        return mrfast_like_profile(self.read_length, self.seeding_threshold)


#: Analogue of Sup. Table S.1 (accuracy and throughput pair sets).
PAPER_DATASETS: dict[str, DatasetSpec] = {
    # Accuracy 5.1.1 (compared against Edlib)
    "Set 3": DatasetSpec("Set 3", 100, "mrfast", 5, "ERR240727_1-like, mrFAST e=5", "low"),
    "Set 6": DatasetSpec("Set 6", 150, "mrfast", 6, "SRR826460_1-like, mrFAST e=6", "low"),
    "Set 10": DatasetSpec("Set 10", 250, "mrfast", 12, "SRR826471_1-like, mrFAST e=12", "low"),
    "Minimap2": DatasetSpec("Minimap2", 100, "minimap2", 0, "pre-chaining candidates", "low"),
    "BWA-MEM": DatasetSpec("BWA-MEM", 100, "bwamem", 0, "pre-global-alignment candidates", "low"),
    # Accuracy 5.1.2 (filter comparison, low-/high-edit profiles)
    "Set 1": DatasetSpec("Set 1", 100, "mrfast", 2, "low-edit profile, 100bp", "low"),
    "Set 4": DatasetSpec("Set 4", 100, "mrfast", 40, "high-edit profile, 100bp", "high"),
    "Set 5": DatasetSpec("Set 5", 150, "mrfast", 4, "low-edit profile, 150bp", "low"),
    "Set 8": DatasetSpec("Set 8", 150, "mrfast", 70, "high-edit profile, 150bp", "high"),
    "Set 9": DatasetSpec("Set 9", 250, "mrfast", 8, "low-edit profile, 250bp", "low"),
    "Set 12": DatasetSpec("Set 12", 250, "mrfast", 100, "high-edit profile, 250bp", "high"),
    # Filtering throughput
    "Set 7": DatasetSpec("Set 7", 150, "mrfast", 10, "throughput set, 150bp", "high"),
    "Set 11": DatasetSpec("Set 11", 250, "mrfast", 15, "throughput set, 250bp", "high"),
}


def build_dataset(
    name: str,
    n_pairs: int = DEFAULT_N_PAIRS,
    seed: int = 0,
) -> PairDataset:
    """Build a scaled-down analogue of one of the paper's data sets.

    The first ``n`` pairs do not depend on ``n_pairs``: a smaller build is a
    row prefix of a larger one with the same ``seed``.
    """
    try:
        spec = PAPER_DATASETS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown dataset {name!r}; available: {sorted(PAPER_DATASETS)}"
        ) from exc
    dataset = generate_pair_dataset(n_pairs, spec.profile(), seed=seed, name=name)
    return dataset
