"""Synthetic reference genome generation.

The paper maps 1000-Genomes reads against GRCh37; neither is available
offline, so the whole-genome experiments run against synthetic references.
Real genomes are not uniform random strings — seeds map to multiple candidate
locations because of genomic repeats — so the generator plants segmental
duplications (long, slightly diverged copies of earlier regions) and short
tandem repeats, plus optional ``N`` islands (assembly gaps), to make the
seeding stage produce realistically ambiguous candidate location lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..genomics.alphabet import BASES, UNKNOWN_BASE
from ..genomics.reference import ReferenceGenome
from ..genomics.sequence import Sequence

__all__ = ["GenomeProfile", "generate_reference", "generate_sequence", "random_codes"]


@dataclass(frozen=True)
class GenomeProfile:
    """Parameters describing the synthetic genome's repeat structure.

    Attributes
    ----------
    gc_content:
        Fraction of G/C bases in the random background (human ~0.41).
    duplication_fraction:
        Fraction of the genome covered by segmental duplications.
    duplication_length:
        Length of each planted duplication block.
    duplication_divergence:
        Per-base substitution probability applied to each duplicated copy,
        so copies are similar but not identical (as in real genomes).
    tandem_repeat_fraction:
        Fraction of the genome covered by short tandem repeats.
    tandem_unit_length:
        Length of the repeated unit in tandem repeat regions.
    n_island_count / n_island_length:
        Number and length of ``N`` islands (assembly gaps).
    """

    gc_content: float = 0.41
    duplication_fraction: float = 0.05
    duplication_length: int = 500
    duplication_divergence: float = 0.02
    tandem_repeat_fraction: float = 0.02
    tandem_unit_length: int = 8
    n_island_count: int = 2
    n_island_length: int = 50


_ACGT = np.frombuffer(BASES.encode("ascii"), dtype=np.uint8)


def random_codes(
    shape: "int | tuple[int, ...]", rng: np.random.Generator, gc_content: float = 0.41
) -> np.ndarray:
    """Random 2-bit base codes (uint8, ``A=0 .. T=3``) with the given GC content.

    One uniform per base, coded by how many cumulative-probability cuts lie
    at or below it: the same stream and codes as ``rng.choice(4, p=...)``
    without its int64 search.
    """
    at = (1.0 - gc_content) / 2.0
    gc = gc_content / 2.0
    probs = np.array([at, gc, gc, at])  # A, C, G, T
    cuts = np.cumsum(probs / probs.sum())
    cuts /= cuts[-1]
    u = rng.random(shape)
    codes = (u >= cuts[0]).astype(np.uint8)
    codes += u >= cuts[1]
    codes += u >= cuts[2]
    return codes


def generate_sequence(length: int, rng: np.random.Generator, gc_content: float = 0.41) -> str:
    """Generate a random DNA string with the requested GC content."""
    if length <= 0:
        return ""
    return _ACGT[random_codes(length, rng, gc_content)].tobytes().decode("ascii")


def _mutate_copy(segment: np.ndarray, divergence: float, rng: np.random.Generator) -> np.ndarray:
    """Apply per-base substitutions to a duplicated block (as byte codes 0-3)."""
    mask = rng.random(len(segment)) < divergence
    if mask.any():
        segment = segment.copy()
        segment[mask] = (segment[mask] + rng.integers(1, 4, size=mask.sum())) % 4
    return segment


def generate_reference(
    length: int,
    seed: int = 0,
    profile: GenomeProfile | None = None,
    name: str = "sim_ref",
) -> ReferenceGenome:
    """Generate a synthetic reference genome of ``length`` bases.

    The genome is built as a random background with planted segmental
    duplications, tandem repeats and ``N`` islands according to ``profile``.
    """
    if length <= 0:
        raise ValueError("length must be positive")
    profile = profile or GenomeProfile()
    rng = np.random.default_rng(seed)

    codes = random_codes(length, rng, profile.gc_content)

    # Segmental duplications: copy an earlier block to a later location with
    # slight divergence, so reads from either copy have two candidate loci.
    dup_len = min(profile.duplication_length, max(1, length // 4))
    n_dups = int(profile.duplication_fraction * length / max(dup_len, 1))
    for _ in range(n_dups):
        if length < 2 * dup_len + 2:
            break
        src = int(rng.integers(0, length - 2 * dup_len - 1))
        dst = int(rng.integers(src + dup_len, length - dup_len))
        block = _mutate_copy(codes[src : src + dup_len], profile.duplication_divergence, rng)
        codes[dst : dst + dup_len] = block

    # Short tandem repeats.
    unit_len = max(1, profile.tandem_unit_length)
    n_tandem = int(profile.tandem_repeat_fraction * length / max(unit_len * 10, 1))
    for _ in range(n_tandem):
        if length < unit_len * 10:
            break
        start = int(rng.integers(0, length - unit_len * 10))
        unit = codes[start : start + unit_len].copy()
        repeats = int(rng.integers(5, 10))
        end = min(length, start + unit_len * repeats)
        tiled = np.tile(unit, repeats)[: end - start]
        codes[start:end] = tiled

    bases = bytearray(_ACGT[codes].tobytes())

    # N islands (assembly gaps).
    for _ in range(profile.n_island_count):
        if length <= profile.n_island_length + 1:
            break
        start = int(rng.integers(0, length - profile.n_island_length))
        bases[start : start + profile.n_island_length] = (
            UNKNOWN_BASE.encode("ascii") * profile.n_island_length
        )

    return ReferenceGenome(name=name, bases=bases.decode("ascii"))
