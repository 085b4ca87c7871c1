"""Shared test helpers (importable as ``from helpers import ...``).

These used to live in ``conftest.py``, but importing *from* a conftest module
is fragile: with both ``tests/conftest.py`` and ``benchmarks/conftest.py`` on
the path, ``from conftest import ...`` resolves whichever was loaded first.
Keeping the plain helpers in a regular module avoids the ambiguity.
"""

from __future__ import annotations

import random

import numpy as np

from repro.filters.base import PreAlignmentFilter
from repro.simulate.mutations import apply_exact_edits

BASES = "ACGT"


def random_sequence(length: int, rng: random.Random) -> str:
    """Uniform random DNA string."""
    return "".join(rng.choice(BASES) for _ in range(length))


def mutated_pair(
    length: int, n_edits: int, rng: random.Random, indel_fraction: float = 0.2
) -> tuple[str, str]:
    """A (read, segment) pair where the read is the segment with ~n_edits edits."""
    segment = random_sequence(length, rng)
    np_rng = np.random.default_rng(rng.randrange(1 << 30))
    read = apply_exact_edits(segment, n_edits, np_rng, indel_fraction=indel_fraction)
    return read, segment


def plane_bits(words: np.ndarray) -> np.ndarray:
    """``(..., 64)`` uint8 array of every uint64's bits, least significant first."""
    as_bytes = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1, bitorder="little").reshape(words.shape + (64,))


def to_planes(mask: np.ndarray) -> np.ndarray:
    """Per-base ``(n_rows, length)`` 0/1 masks as ``(length, n_blocks)`` bit planes.

    Row ``p`` of ``mask`` becomes bit ``p % 64`` of column ``p // 64``, the
    layout of :func:`repro.filters.packed.bit_planes`.
    """
    n_rows, length = mask.shape
    bits = np.zeros((length, -(-n_rows // 64) * 64), dtype=np.uint8)
    bits[:, :n_rows] = mask.T
    return np.packbits(bits, axis=1, bitorder="little").view("<u8").astype(np.uint64)


def from_planes(planes: np.ndarray, n_rows: int) -> np.ndarray:
    """The first ``n_rows`` pairs of bit planes as per-base ``(n_rows, length)`` masks."""
    return plane_bits(planes).reshape(planes.shape[0], -1)[:, :n_rows].T


def kernel_batches(engine, monkeypatch):
    """The row count of every kernel batch ``engine`` runs from now on."""
    sizes = []
    original = engine.filter.filter_batch

    def recording(pairs, tier):
        sizes.append(pairs.n_pairs)
        return original(pairs, tier=tier)

    monkeypatch.setattr(engine.filter, "filter_batch", recording)
    return sizes


class BaseCountFilter(PreAlignmentFilter):
    """A filter with no word kernel, counted base by base in Python.

    Its estimate is half the L1 distance between the two sequences' base
    counts, rounded up: a substitution moves that distance by at most 2 and
    an indel by 1, so it never exceeds the edit distance.  The loop holds the
    GIL.  It lives here, not in a test module, so that process-pool workers
    can import it.
    """

    name = "BaseCount"

    def estimate_edits_codes(self, read_codes, ref_codes):
        counts = [0] * 256
        for code in read_codes.tolist():
            counts[code] += 1
        for code in ref_codes.tolist():
            counts[code] -= 1
        return (sum(map(abs, counts)) + 1) // 2
