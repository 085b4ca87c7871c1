"""Mutation / sequencing-error models used by the read and pair simulators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..genomics.alphabet import BASES
from ..genomics.encoding import decode_from_codes, encode_to_codes

__all__ = [
    "MutationProfile",
    "apply_profile",
    "apply_exact_edits",
    "EditDraws",
    "draw_edits",
    "edit_codes",
]


@dataclass(frozen=True)
class MutationProfile:
    """Per-base substitution and indel rates (Mason-style error model).

    ``substitution_rate`` covers both sequencing mismatches and SNPs;
    ``insertion_rate`` / ``deletion_rate`` are per-base probabilities of a
    single-base indel starting at that position.
    """

    substitution_rate: float = 0.01
    insertion_rate: float = 0.001
    deletion_rate: float = 0.001

    def scaled(self, factor: float) -> "MutationProfile":
        """Return a copy with all rates multiplied by ``factor``."""
        return MutationProfile(
            substitution_rate=min(0.95, self.substitution_rate * factor),
            insertion_rate=min(0.5, self.insertion_rate * factor),
            deletion_rate=min(0.5, self.deletion_rate * factor),
        )


def _random_base(rng: np.random.Generator, exclude: str | None = None) -> str:
    choices = [b for b in BASES if b != exclude] if exclude else list(BASES)
    return choices[int(rng.integers(0, len(choices)))]


def apply_profile(
    sequence: str, profile: MutationProfile, rng: np.random.Generator
) -> tuple[str, int]:
    """Mutate ``sequence`` according to ``profile``.

    Returns the mutated sequence and the number of edit operations applied.
    The output keeps the input length: deletions consume a base and the
    shortfall is ignored, insertions push the tail out; this mirrors how a
    fixed-length read sampled from a mutated template relates to the
    corresponding same-length reference segment.
    """
    out: list[str] = []
    edits = 0
    for base in sequence:
        r = float(rng.random())
        if r < profile.deletion_rate:
            edits += 1
            continue  # base deleted
        if r < profile.deletion_rate + profile.insertion_rate:
            out.append(_random_base(rng))
            edits += 1
        if float(rng.random()) < profile.substitution_rate:
            out.append(_random_base(rng, exclude=base))
            edits += 1
        else:
            out.append(base)
    mutated = "".join(out)
    if len(mutated) < len(sequence):
        # Pad with random bases (the read would continue into the template).
        mutated += "".join(_random_base(rng) for _ in range(len(sequence) - len(mutated)))
    return mutated[: len(sequence)], edits


#: Edit kinds of the exact-edit kernel (:func:`edit_codes`).
SUBSTITUTION, DELETION, INSERTION = 0, 1, 2


@dataclass(frozen=True)
class EditDraws:
    """The pre-drawn randomness of up to ``K`` edits on each of ``n`` rows.

    Every array has shape ``(n, K)``; column ``j`` drives a row's ``j``-th
    edit.  ``kinds`` holds :data:`SUBSTITUTION`, :data:`DELETION` or
    :data:`INSERTION`.  ``spots`` are uniform on [0, 1): the edit lands at
    ``floor(spot * current length)``, a uniform position within the
    sequence as it stands.  ``picks`` are uniform on 0..11: an inserted base
    is code ``pick % 4`` and a substitution adds ``1 + pick % 3`` (mod 4),
    so both are uniform over their choices.  ``filler`` holds uniform base
    codes that back-fill the tail after net deletions.
    """

    kinds: np.ndarray
    spots: np.ndarray
    picks: np.ndarray
    filler: np.ndarray


def draw_edits(
    rng: np.random.Generator, n_rows: int, max_edits: int, indel_fraction: float
) -> EditDraws:
    """Draw the randomness of ``max_edits`` edits on ``n_rows`` rows.

    Half of the indel share are deletions and half insertions; the rest are
    substitutions.
    """
    shape = (n_rows, max_edits)
    u = rng.random(shape)
    kinds = np.where(
        u < indel_fraction / 2,
        DELETION,
        np.where(u < indel_fraction, INSERTION, SUBSTITUTION),
    ).astype(np.uint8)
    return EditDraws(
        kinds=kinds,
        spots=rng.random(shape),
        picks=rng.integers(0, 12, size=shape, dtype=np.uint8),
        filler=rng.integers(0, 4, size=shape, dtype=np.uint8),
    )


def edit_codes(codes: np.ndarray, n_edits: np.ndarray, draws: EditDraws) -> np.ndarray:
    """Apply ``n_edits[i]`` edits to each row of the 2-bit ``codes`` block.

    One vector pass per edit index applies that edit to every row that
    still has edits left.  Rows with ``n_edits <= 0`` come back unchanged.
    A deletion on a 1-base sequence falls back to an insertion.  Each row
    works in a buffer of its bases followed by its ``filler``: a deletion
    shifts the tail left (so filler bases pad a shortened row) and an
    insertion shifts it right.  The first ``L`` columns are the result,
    trimmed or padded back to the input length ``L``.
    """
    n_rows, length = codes.shape
    n_edits = np.asarray(n_edits)
    max_edits = draws.kinds.shape[1]
    width = length + max_edits
    # Rows sorted by edit count, most first: pass j's rows are a prefix.
    order = np.argsort(-n_edits, kind="stable")
    active = np.count_nonzero(n_edits[:, None] > np.arange(max_edits), axis=0)
    buf = np.concatenate([codes, draws.filler], axis=1)[order]
    kinds, spots, picks = draws.kinds[order], draws.spots[order], draws.picks[order]
    size = np.full(n_rows, length, dtype=np.int64)
    cols = np.arange(width)
    for j, m in enumerate(active):
        cur = size[:m]
        pos = np.minimum((spots[:m, j] * cur).astype(np.int64), cur - 1)
        kind = np.where((kinds[:m, j] == DELETION) & (cur == 1), INSERTION, kinds[:m, j])
        pick = picks[:m, j]

        r = np.flatnonzero(kind == SUBSTITUTION)
        p = pos[r]
        buf[r, p] = (buf[r, p] + 1 + pick[r] % 3) % 4

        r = np.flatnonzero(kind != SUBSTITUTION)
        p, ins = pos[r], kind[r] == INSERTION
        step = np.where(ins, -1, 1)
        # Column c >= p reads c + 1 after a deletion and c - 1 after an
        # insertion, whose column p then takes the new base.
        src = np.minimum(cols + step[:, None] * (cols >= p[:, None]), width - 1)
        shifted = buf[r[:, None], src]
        shifted[ins, p[ins]] = pick[r[ins]] % 4
        buf[r] = shifted
        size[r] -= step
    out = np.empty((n_rows, length), dtype=np.uint8)
    out[order] = buf[:, :length]
    return out


def apply_exact_edits(
    sequence: str,
    n_edits: int,
    rng: np.random.Generator,
    indel_fraction: float = 0.2,
) -> str:
    """Apply exactly ``n_edits`` edit operations to an ``ACGT`` ``sequence``.

    A one-row call of :func:`edit_codes`, the kernel the pair simulator runs
    over whole blocks.  Substitutions always change the base (so each one is
    a real edit); insertions and deletions shift the remainder of the
    sequence and the result is trimmed / padded back to the original length.
    With ``i`` insertions and ``d`` deletions among the edits, the edit
    distance of the result from the input is at most
    ``n_edits + |i - d|``: edits can cancel or overlap, and the trimmed or
    padded tail can add up to ``|i - d|``.
    """
    if not sequence:
        return ""
    codes = encode_to_codes(sequence)[None, :]
    draws = draw_edits(rng, 1, max(n_edits, 0), indel_fraction)
    return decode_from_codes(edit_codes(codes, np.array([n_edits]), draws)[0])
