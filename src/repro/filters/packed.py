"""Packed-word bit-parallel mask kernels (the GPU register view, vectorised).

The per-base ``uint8`` mask helpers of :mod:`repro.filters.bitvector` are the
*reference* implementation: one array element per base, easy to read, easy to
verify.  This module is the *fast* implementation the engine actually runs:
masks live in the same 2-bit-lane layout as the encoded sequences — one
``uint64`` word holds 32 bases, the per-base mask bit sits in the low bit of
each base's 2-bit group, and the first base of a sequence occupies the most
significant group of word 0.  Every hot operation of the filtering stack
(shifted mismatch masks, streak amendment, edge forcing, the AND across
masks, windowed edit counting, zero-run boundary detection for MAGNET and the
neighborhood maps of Shouji/SneakySnake) is a handful of shifts, boolean word
operations and popcounts on ``(n_pairs, n_words)`` arrays — roughly an order
of magnitude less memory traffic than the per-base form.

Popcounts use :func:`numpy.bitwise_count` when available (NumPy >= 2.0) and
fall back to a 256-entry byte lookup table on older NumPy builds.

Property tests (``tests/test_packed_kernels.py``) pin every kernel here
bit-for-bit against the per-base reference across read lengths and
thresholds, including ``N``-containing and length-1 edge cases.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..genomics.encoding import BASES_PER_WORD_64, words_per_read

__all__ = [
    "LANE_MASK",
    "popcount",
    "count_set_lanes",
    "shift_words_right_bits",
    "shift_words_left_bits",
    "shift_lanes_right",
    "shift_lanes_left",
    "lane_span_mask",
    "mismatch_lanes",
    "shifted_mismatch_lanes",
    "amend_lanes",
    "count_lane_windows",
    "pack_lanes",
    "unpack_lanes",
    "unpack_group_values",
    "neighborhood_lanes",
    "zero_run_markers",
]

_U64 = np.uint64
_WORD_BITS = 64
#: Low bit of every 2-bit base group (the "lane" bits a mask may occupy).
LANE_MASK = np.uint64(0x5555555555555555)

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")
_POPCOUNT_LUT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _popcount_lut(words: np.ndarray) -> np.ndarray:
    """Byte-LUT popcount fallback for NumPy builds without ``bitwise_count``."""
    words = np.asarray(words)
    if words.dtype == np.uint8:
        return _POPCOUNT_LUT[words]
    contiguous = np.ascontiguousarray(words, dtype=_U64)
    per_byte = _POPCOUNT_LUT[contiguous.view(np.uint8)]
    return per_byte.reshape(contiguous.shape + (8,)).sum(axis=-1, dtype=np.uint8)


def popcount(words: np.ndarray) -> np.ndarray:
    """Per-element set-bit counts of an unsigned integer array (same shape, uint8)."""
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words)
    return _popcount_lut(words)


def count_set_lanes(words: np.ndarray) -> np.ndarray:
    """Set bits per row of a ``(..., n_words)`` mask (int32, summed over words)."""
    return popcount(words).sum(axis=-1, dtype=np.int32)


# --------------------------------------------------------------------------- #
# Whole-bit-vector shifts with carry transfer (arbitrary distance)
# --------------------------------------------------------------------------- #


def shift_words_right_bits(words: np.ndarray, bits: int) -> np.ndarray:
    """Shift a ``(..., n_words)`` bit-vector right by ``bits``, zeros shifted in.

    "Right" moves content towards higher base indices (word 0 holds the first
    bases).  Any non-negative distance is supported: whole words are relocated
    first, the remainder is a sub-word shift with explicit carry transfer.
    """
    if bits < 0:
        raise ValueError("bits must be non-negative")
    words = np.asarray(words, dtype=_U64)
    if bits == 0:
        return words.copy()
    word_shift, bit_shift = divmod(bits, _WORD_BITS)
    n_words = words.shape[-1]
    out = np.zeros_like(words)
    if word_shift >= n_words:
        return out
    src = words[..., : n_words - word_shift]
    if bit_shift == 0:
        out[..., word_shift:] = src
    else:
        out[..., word_shift:] = src >> _U64(bit_shift)
        out[..., word_shift + 1 :] |= src[..., :-1] << _U64(_WORD_BITS - bit_shift)
    return out


def shift_words_left_bits(words: np.ndarray, bits: int) -> np.ndarray:
    """Shift a ``(..., n_words)`` bit-vector left by ``bits``, zeros shifted in."""
    if bits < 0:
        raise ValueError("bits must be non-negative")
    words = np.asarray(words, dtype=_U64)
    if bits == 0:
        return words.copy()
    word_shift, bit_shift = divmod(bits, _WORD_BITS)
    n_words = words.shape[-1]
    out = np.zeros_like(words)
    if word_shift >= n_words:
        return out
    src = words[..., word_shift:]
    if bit_shift == 0:
        out[..., : n_words - word_shift] = src
    else:
        out[..., : n_words - word_shift] = src << _U64(bit_shift)
        out[..., : n_words - word_shift - 1] |= src[..., 1:] >> _U64(
            _WORD_BITS - bit_shift
        )
    return out


def shift_lanes_right(words: np.ndarray, k_bases: int) -> np.ndarray:
    """Shift by ``k_bases`` bases towards higher indices (``out[j] = in[j-k]``)."""
    return shift_words_right_bits(words, 2 * k_bases)


def shift_lanes_left(words: np.ndarray, k_bases: int) -> np.ndarray:
    """Shift by ``k_bases`` bases towards lower indices (``out[j] = in[j+k]``)."""
    return shift_words_left_bits(words, 2 * k_bases)


# --------------------------------------------------------------------------- #
# Lane masks and primitive mask operations
# --------------------------------------------------------------------------- #


@lru_cache(maxsize=None)
def _lane_span_words(start: int, stop: int, n_words: int) -> tuple[int, ...]:
    spans = []
    for w in range(n_words):
        value = 0
        lo = max(start, w * BASES_PER_WORD_64)
        hi = min(stop, (w + 1) * BASES_PER_WORD_64)
        for b in range(lo, hi):
            value |= 1 << (62 - 2 * (b - w * BASES_PER_WORD_64))
        spans.append(value)
    return tuple(spans)


def lane_span_mask(start: int, stop: int, n_words: int) -> np.ndarray:
    """``(n_words,)`` uint64 mask with the lane bits of positions [start, stop) set."""
    start = max(0, start)
    stop = max(start, stop)
    return np.array(_lane_span_words(start, stop, n_words), dtype=_U64)


def mismatch_lanes(
    a_words: np.ndarray, b_words: np.ndarray, valid: np.ndarray
) -> np.ndarray:
    """Per-base difference lanes of two 2-bit encoded word arrays.

    XOR in 2-bit space, OR-fold each group into its low (lane) bit and keep
    only the ``valid`` lanes (positions inside the sequence).
    """
    x = np.bitwise_xor(np.asarray(a_words, dtype=_U64), np.asarray(b_words, dtype=_U64))
    return (x | (x >> _U64(1))) & valid


def shifted_mismatch_lanes(
    read_words: np.ndarray,
    ref_words: np.ndarray,
    shift: int,
    length: int,
    vacant_value: int = 0,
    valid: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Packed equivalent of :func:`repro.filters.bitvector.shifted_mask`.

    Position ``j`` compares ``read[j - shift]`` with ``ref[j]`` (``shift > 0``
    models a deletion mask, ``shift < 0`` an insertion mask); the vacant
    positions with no read base to compare are filled with ``vacant_value``.
    Returns ``(lanes, vacated)`` where ``vacated`` is the lane mask of the
    vacant span (``None`` for the unshifted Hamming mask) so callers can apply
    their edge policy without recomputing it.
    """
    n_words = read_words.shape[-1]
    if valid is None:
        valid = lane_span_mask(0, length, n_words)
    if shift == 0:
        return mismatch_lanes(read_words, ref_words, valid), None
    if shift > 0:
        shifted = shift_lanes_right(read_words, shift)
        vacated = lane_span_mask(0, min(shift, length), n_words)
    else:
        shifted = shift_lanes_left(read_words, -shift)
        vacated = lane_span_mask(length + shift, length, n_words)
    lanes = mismatch_lanes(shifted, ref_words, valid)
    lanes = (lanes | vacated) if vacant_value else (lanes & ~vacated)
    return lanes, vacated


def amend_lanes(
    masks: np.ndarray, valid: np.ndarray, max_zero_run: int = 2
) -> np.ndarray:
    """Packed equivalent of :func:`repro.filters.bitvector.amend_mask`.

    Flips zero runs of length <= ``max_zero_run`` flanked by ones on both
    sides; runs touching either sequence boundary are left untouched (the
    zeros shifted in at the edges provide exactly that semantics).
    """
    if max_zero_run not in (1, 2):
        raise ValueError("amend_lanes supports max_zero_run of 1 or 2")
    m = np.asarray(masks, dtype=_U64)
    zeros = (~m) & valid
    prev1 = shift_lanes_right(m, 1)
    next1 = shift_lanes_left(m, 1)
    amended = m | (zeros & prev1 & next1)
    if max_zero_run >= 2:
        next2 = shift_lanes_left(m, 2)
        double = zeros & ((~next1) & valid) & prev1 & next2
        amended |= double | shift_lanes_right(double, 1)
    return amended


@lru_cache(maxsize=None)
def _window_lsb_word(window: int) -> int:
    value = 0
    for g in range(BASES_PER_WORD_64 // window):
        last_base = g * window + window - 1
        value |= 1 << (62 - 2 * last_base)
    return value


def count_lane_windows(
    masks: np.ndarray, length: int, window: int = 4
) -> np.ndarray:
    """Non-overlapping ``window``-base windows containing a set lane, per row.

    The packed form of :func:`repro.filters.bitvector.count_set_windows`: for
    window widths dividing 32 every window lies inside one word, so an OR-fold
    of each window's lanes onto the window's lowest lane bit followed by a
    popcount yields the count without unpacking.  Other widths fall back to
    the per-base path.
    """
    masks = np.asarray(masks, dtype=_U64)
    if length == 0:
        return np.zeros(masks.shape[:-1], dtype=np.int32)
    if window >= 1 and BASES_PER_WORD_64 % window == 0:
        group_bits = 2 * window
        folded = masks.copy()
        shift = 2
        while shift < group_bits:
            folded |= folded >> _U64(shift)
            shift <<= 1
        folded &= _U64(_window_lsb_word(window))
        return count_set_lanes(folded)
    per_base = unpack_lanes(masks, length)
    n_windows = -(-length // window)
    padded = np.zeros(masks.shape[:-1] + (n_windows * window,), dtype=np.uint8)
    padded[..., :length] = per_base
    grouped = padded.reshape(masks.shape[:-1] + (n_windows, window))
    return np.any(grouped, axis=-1).sum(axis=-1, dtype=np.int32)


# --------------------------------------------------------------------------- #
# Packing / unpacking between per-base masks and lane words
# --------------------------------------------------------------------------- #

_LANE_BIT_POSITIONS = (62 - 2 * np.arange(BASES_PER_WORD_64)).astype(_U64)


def pack_lanes(mask: np.ndarray) -> np.ndarray:
    """Pack a per-base 0/1 mask ``(..., length)`` into lane words ``(..., n_words)``."""
    mask = np.asarray(mask, dtype=np.uint8)
    length = mask.shape[-1]
    n_words = words_per_read(length, _WORD_BITS)
    padded_len = n_words * BASES_PER_WORD_64
    padded = np.zeros(mask.shape[:-1] + (padded_len,), dtype=_U64)
    padded[..., :length] = mask
    grouped = padded.reshape(mask.shape[:-1] + (n_words, BASES_PER_WORD_64))
    return (grouped << _LANE_BIT_POSITIONS).sum(axis=-1, dtype=_U64)


def _unpack_word_bits(words: np.ndarray) -> np.ndarray:
    """All 64 bits of each word as a uint8 array ``(..., n_words * 64)``.

    Big-endian bit order (bit 0 of the output is the word's most significant
    bit), matching the lane layout's "first base in the top bits" rule —
    :func:`numpy.unpackbits` over the byte view is a byte-wide C loop, far
    cheaper than a 64x-expanded ``uint64`` shift broadcast.
    """
    words = np.asarray(words, dtype=_U64)
    n_words = words.shape[-1]
    as_bytes = words[..., np.newaxis].view(np.uint8)
    if np.little_endian:
        as_bytes = as_bytes[..., ::-1]
    flat = np.ascontiguousarray(as_bytes).reshape(words.shape[:-1] + (n_words * 8,))
    return np.unpackbits(flat, axis=-1)


def unpack_group_values(words: np.ndarray, length: int) -> np.ndarray:
    """Unpack each base's full 2-bit group into values 0-3 ``(..., length)``.

    Where :func:`unpack_lanes` reads only the low (lane) bit of every group,
    this reads both — callers can stash a second, independent bitplane in the
    otherwise-unused high bit (e.g. MAGNET packs zero-run *end* markers above
    the *start* markers and recovers both with this one pass).
    """
    bits = _unpack_word_bits(words)
    groups = bits.reshape(bits.shape[:-1] + (-1, 2))
    values = groups[..., 0] << 1
    values |= groups[..., 1]
    return values[..., :length]


def unpack_lanes(words: np.ndarray, length: int) -> np.ndarray:
    """Unpack lane words ``(..., n_words)`` into a per-base uint8 mask ``(..., length)``.

    Each base's lane bit is the low bit of its 2-bit group, i.e. every odd
    bit of the big-endian bit order produced by :func:`_unpack_word_bits`.
    """
    bits = _unpack_word_bits(words)
    return np.ascontiguousarray(bits[..., 1::2][..., :length])


# --------------------------------------------------------------------------- #
# Composite kernels shared by the comparator filters
# --------------------------------------------------------------------------- #


def neighborhood_lanes(
    read_words: np.ndarray,
    ref_words: np.ndarray,
    length: int,
    error_threshold: int,
) -> np.ndarray:
    """Packed neighborhood maps: ``(n_pairs, 2e+1, n_words)`` obstacle lanes.

    Row ``i`` marks the mismatches along diagonal ``d = i - e`` (position
    ``j`` compares ``read[j]`` with ``ref[j + d]``); comparisons falling
    outside the reference segment are obstacles (1), padding lanes beyond the
    sequence length are 0.  This is the word-level form of
    :func:`repro.filters.shouji.neighborhood_map_batch`, built from the
    already-encoded word arrays with shifts and XORs only.
    """
    read_words = np.asarray(read_words, dtype=_U64)
    ref_words = np.asarray(ref_words, dtype=_U64)
    n_pairs, n_words = read_words.shape
    e = int(error_threshold)
    valid = lane_span_mask(0, length, n_words)
    out = np.empty((n_pairs, 2 * e + 1, n_words), dtype=_U64)
    for i in range(2 * e + 1):
        d = i - e
        # Comparing read[j] with ref[j + d] is the shifted mismatch mask with
        # the roles swapped and the shift negated; out-of-range positions are
        # obstacles (vacant_value=1).
        out[:, i, :], _ = shifted_mismatch_lanes(
            ref_words, read_words, -d, length, vacant_value=1, valid=valid
        )
    return out


def zero_run_markers(
    masks: np.ndarray, valid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Start/end markers of every maximal zero run of a packed mask.

    Returns ``(starts, ends)`` lane masks: a start bit at the first position
    of each maximal zero run and an end bit at its last position (both
    inclusive).  Runs touching the sequence boundaries are included, matching
    the sentinel convention of MAGNET's reference extraction.
    """
    m = np.asarray(masks, dtype=_U64)
    zeros = (~m) & valid
    starts = zeros & ~shift_lanes_right(zeros, 1)
    ends = zeros & ~shift_lanes_left(zeros, 1)
    return starts, ends
