"""Candidate read / reference-segment pair generation.

The accuracy and throughput experiments of the paper operate on pools of
30 million read / candidate-reference-segment pairs produced by a mapper's
seeding stage (mrFAST, Minimap2 or BWA-MEM).  Offline we synthesise pools with
the same *structure*: a mixture of

* genuine mappings (small edit distance — sequencing errors and variants),
* "repeat" candidates (the seed matched a similar but diverged copy, so the
  pair has a moderate edit distance, typically a small multiple of the
  seeding threshold), and
* spurious candidates (essentially unrelated segments),

plus a configurable fraction of *undefined* pairs that contain an ``N`` base.
The mixture weights differ per mapper profile (mrFAST low-/high-edit sets,
Minimap2 chain-stage candidates, BWA-MEM pre-global-alignment candidates),
reproducing the qualitative divergence distributions of the paper's data sets.

Pools are generated in blocks of :data:`PAIR_BLOCK` pairs with array
operations over the whole block (the edit kernel is
:func:`repro.simulate.mutations.edit_codes`).  Block ``b`` draws from its own
``np.random.default_rng([seed, b])`` and is always drawn whole, so pair ``i``
depends only on ``(seed, i // PAIR_BLOCK)``: a smaller pool is a row prefix of
a larger one with the same seed, and prefixes (planner probes, ``subset``)
do not depend on the pool size.  The block stream dates from version 7.0.0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..genomics.alphabet import UNKNOWN_BASE
from ..genomics.encoding import EncodedPairBatch
from ..genomics.sequence import SequencePair
from .genome import random_codes
from .mutations import draw_edits, edit_codes

__all__ = [
    "PAIR_BLOCK",
    "PairProfile",
    "PairDataset",
    "generate_pair_dataset",
    "mrfast_like_profile",
    "minimap2_like_profile",
    "bwamem_like_profile",
]


@dataclass(frozen=True)
class PairProfile:
    """Mixture parameters of a candidate-pair pool.

    Attributes
    ----------
    read_length:
        Length of the read and of the candidate reference segment.
    true_fraction / repeat_fraction / random_fraction:
        Mixture weights (normalised internally) of genuine, repeat-induced and
        spurious candidates.
    true_mean_edits:
        Mean edit count (Poisson) of genuine candidates.
    repeat_min_edits / repeat_max_edits:
        Uniform range of edit counts for repeat-induced candidates.
    undefined_fraction:
        Fraction of pairs that receive an ``N`` base (undefined pairs).
    indel_fraction:
        Fraction of edits that are indels rather than substitutions.
    """

    read_length: int = 100
    true_fraction: float = 0.3
    repeat_fraction: float = 0.5
    random_fraction: float = 0.2
    true_mean_edits: float = 1.5
    repeat_min_edits: int = 3
    repeat_max_edits: int = 20
    undefined_fraction: float = 0.001
    indel_fraction: float = 0.15

    def __post_init__(self) -> None:
        def check(field_name: str, ok: bool, rule: str) -> None:
            if not ok:
                value = getattr(self, field_name)
                raise ValueError(f"PairProfile.{field_name}: must be {rule}, got {value!r}")

        check("read_length", self.read_length >= 1, ">= 1")
        fractions = ("true_fraction", "repeat_fraction", "random_fraction")
        for name in fractions:
            check(name, getattr(self, name) >= 0, ">= 0")
        if not sum(getattr(self, name) for name in fractions) > 0:
            raise ValueError(
                "PairProfile.true_fraction/repeat_fraction/random_fraction: "
                "must have a positive sum"
            )
        for name in ("undefined_fraction", "indel_fraction"):
            check(name, 0 <= getattr(self, name) <= 1, "in [0, 1]")
        check("true_mean_edits", self.true_mean_edits >= 0, ">= 0")
        check("repeat_min_edits", self.repeat_min_edits >= 0, ">= 0")
        check(
            "repeat_max_edits",
            self.repeat_max_edits >= self.repeat_min_edits,
            f">= repeat_min_edits ({self.repeat_min_edits})",
        )

    def weights(self) -> np.ndarray:
        w = np.array([self.true_fraction, self.repeat_fraction, self.random_fraction])
        return w / w.sum()


@dataclass(frozen=True)
class PairDataset:
    """A pool of candidate pairs plus metadata, the unit of the experiments.

    Frozen, with tuple fields (lists passed in are converted), so the pairs
    cannot change under the batch :meth:`encoded` caches.
    """

    name: str
    reads: tuple[str, ...]
    segments: tuple[str, ...]
    read_length: int
    profile: PairProfile | None = None
    planned_edits: tuple[int, ...] = ()
    _encoded: "EncodedPairBatch | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for name in ("reads", "segments", "planned_edits"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if len(self.reads) != len(self.segments):
            raise ValueError("reads and segments must have the same length")

    def encoded(self) -> EncodedPairBatch:
        """The dataset's pairs encoded exactly once (cached on first call).

        Filtering engines consume this batch directly, so repeated runs over
        the same dataset (sweeps, cascades, benchmarks) never re-encode a
        string.
        """
        if self._encoded is None:
            object.__setattr__(
                self, "_encoded", EncodedPairBatch.from_lists(self.reads, self.segments)
            )
        return self._encoded

    def __len__(self) -> int:
        return len(self.reads)

    @property
    def n_pairs(self) -> int:
        return len(self.reads)

    @property
    def n_undefined(self) -> int:
        """Number of undefined pairs (either side contains an ``N``)."""
        return sum(
            1
            for r, s in zip(self.reads, self.segments)
            if UNKNOWN_BASE in r or UNKNOWN_BASE in s
        )

    def to_pairs(self) -> list[SequencePair]:
        """Materialise the pool as :class:`SequencePair` objects."""
        return [
            SequencePair(read=r, reference_segment=s, read_id=i)
            for i, (r, s) in enumerate(zip(self.reads, self.segments))
        ]

    def subset(self, n: int) -> "PairDataset":
        """First ``n`` pairs as a new dataset (for scaled-down experiments)."""
        return PairDataset(
            name=f"{self.name}[:{n}]",
            reads=self.reads[:n],
            segments=self.segments[:n],
            read_length=self.read_length,
            profile=self.profile,
            planned_edits=self.planned_edits[:n],
        )


def mrfast_like_profile(read_length: int, seeding_threshold: int) -> PairProfile:
    """Profile of an mrFAST candidate pool seeded with threshold ``seeding_threshold``.

    A small seeding threshold yields a *low-edit* profile (most candidates are
    genuine or mildly diverged); a large threshold yields the paper's
    *high-edit* profile (the pool is dominated by heavily diverged repeat
    candidates).
    """
    # Seeding emits every location where a short k-mer of the read matches, so
    # the pool is dominated by divergent candidates regardless of the seeding
    # threshold; what the threshold changes is how much of that mass sits just
    # above the filtering threshold (hard to reject) versus far above it.
    high_edit = seeding_threshold > read_length * 0.1
    if high_edit:
        return PairProfile(
            read_length=read_length,
            true_fraction=0.02,
            repeat_fraction=0.28,
            random_fraction=0.70,
            true_mean_edits=2.0,
            repeat_min_edits=2,
            repeat_max_edits=max(6, int(read_length * 0.5)),
            undefined_fraction=0.001,
        )
    return PairProfile(
        read_length=read_length,
        true_fraction=0.07,
        repeat_fraction=0.63,
        random_fraction=0.30,
        true_mean_edits=max(0.5, seeding_threshold * 0.3),
        repeat_min_edits=2,
        repeat_max_edits=max(6, int(read_length * 0.35)),
        undefined_fraction=0.001,
    )


def minimap2_like_profile(read_length: int = 100) -> PairProfile:
    """Candidates extracted before Minimap2's first chaining DP (Sup. Table S.5)."""
    return PairProfile(
        read_length=read_length,
        true_fraction=0.06,
        repeat_fraction=0.54,
        random_fraction=0.40,
        true_mean_edits=2.0,
        repeat_min_edits=1,
        repeat_max_edits=int(read_length * 0.35),
        undefined_fraction=0.001,
    )


def bwamem_like_profile(read_length: int = 100) -> PairProfile:
    """Candidates extracted before BWA-MEM's final global alignment (Sup. Table S.6).

    BWA-MEM has already discarded most bad candidates at this point, so the
    pool is small and dominated by genuine, low-edit pairs.
    """
    return PairProfile(
        read_length=read_length,
        true_fraction=0.70,
        repeat_fraction=0.25,
        random_fraction=0.05,
        true_mean_edits=1.0,
        repeat_min_edits=1,
        repeat_max_edits=int(read_length * 0.15),
        undefined_fraction=0.0005,
    )


#: Pairs per generator block.  Block ``b`` is drawn whole from its own
#: ``default_rng([seed, b])`` and then truncated, so pair ``i`` depends only on
#: ``(seed, i // PAIR_BLOCK)``.
PAIR_BLOCK = 1024

# The code of the one ``N`` an undefined pair holds, and the code -> base table.
_N_CODE = 4
_BASES_N = np.frombuffer(("ACGT" + UNKNOWN_BASE).encode("ascii"), dtype=np.uint8)


def _pair_block(
    rng: np.random.Generator, profile: PairProfile
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One block of ``PAIR_BLOCK`` pairs: read codes, segment codes, planned edits."""
    n, length = PAIR_BLOCK, profile.read_length
    # 0: genuine mapping, 1: repeat-induced candidate, 2: spurious candidate.
    categories = rng.choice(3, size=n, p=profile.weights())
    segments = random_codes((n, length), rng)
    edits = np.where(
        categories == 0,
        rng.poisson(profile.true_mean_edits, size=n),
        np.where(
            categories == 1,
            rng.integers(profile.repeat_min_edits, profile.repeat_max_edits + 1, size=n),
            -1,
        ),
    )
    draws = draw_edits(rng, n, int(edits.max(initial=0)), profile.indel_fraction)
    reads = edit_codes(segments, edits, draws)
    spurious = np.flatnonzero(categories == 2)  # reads unrelated to their segment
    reads[spurious] = random_codes((spurious.size, length), rng)

    undefined = rng.random(n) < profile.undefined_fraction
    on_read = rng.random(n) < 0.5
    spots = rng.integers(0, length, size=n)
    rows = np.flatnonzero(undefined & on_read)
    reads[rows, spots[rows]] = _N_CODE
    rows = np.flatnonzero(undefined & ~on_read)
    segments[rows, spots[rows]] = _N_CODE
    return reads, segments, edits


def _strings(codes: np.ndarray) -> list[str]:
    length = codes.shape[1]
    text = _BASES_N[codes].tobytes().decode("ascii")
    return [text[i : i + length] for i in range(0, len(text), length)]


def generate_pair_dataset(
    n_pairs: int,
    profile: PairProfile,
    seed: int = 0,
    name: str = "pairs",
) -> PairDataset:
    """Generate a candidate-pair pool according to ``profile``.

    Pairs are built in blocks of :data:`PAIR_BLOCK` with array operations
    over the whole block.  Each block has its own
    ``np.random.default_rng([seed, block])`` and is drawn whole, then the
    last one is truncated, so the pool for a smaller ``n_pairs`` is a row
    prefix of a larger one.
    """
    if n_pairs < 0:
        raise ValueError(f"n_pairs: must be >= 0, got {n_pairs}")
    reads: list[str] = []
    segments: list[str] = []
    planned: list[int] = []
    for block in range(-(-n_pairs // PAIR_BLOCK)):
        keep = min(PAIR_BLOCK, n_pairs - block * PAIR_BLOCK)
        block_reads, block_segments, edits = _pair_block(
            np.random.default_rng([seed, block]), profile
        )
        reads += _strings(block_reads[:keep])
        segments += _strings(block_segments[:keep])
        planned += edits[:keep].tolist()
    return PairDataset(
        name=name,
        reads=reads,
        segments=segments,
        read_length=profile.read_length,
        profile=profile,
        planned_edits=planned,
    )
