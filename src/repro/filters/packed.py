"""Packed-word bit-parallel mask kernels (the GPU register view, vectorised).

The per-base ``uint8`` mask helpers of :mod:`repro.filters.bitvector` are the
*reference* implementation: one array element per base, easy to read, easy to
verify.  This module is the *fast* implementation the engine actually runs,
in two layouts.

**Lane words** (Shouji, MAGNET): masks live in the same 2-bit-lane layout
as the encoded sequences — one ``uint64`` word holds 32 bases, the per-base
mask bit sits in the low bit of each base's 2-bit group, and the first base
of a sequence occupies the most significant group of word 0.  These arrays
are **word-major**: shape ``(n_words, n_pairs)`` (or a stack of such arrays,
one per diagonal or mask), so word ``w`` of every pair is one contiguous row
— the way a GPU warp reads the same word of neighbouring pairs.  A shift
with carry transfer is then a few operations on whole rows, not on short
strided slices of 4 words per pair.  The kernels transpose the pair-major
``(n_pairs, n_words)`` arrays of an
:class:`~repro.genomics.encoding.EncodedPairBatch` once, on entry
(:func:`word_major`).  Per-base arrays stay pair-major: :func:`pack_lanes`
turns ``(..., length)`` into ``(n_words, ...)`` and :func:`unpack_lanes`
turns it back.

**Bit-sliced planes** (the GateKeeper family, SneakySnake): :func:`bit_planes`
transposes each 64-pair block of the words once (:func:`transpose_bit_blocks`,
a 64 x 64 bit-matrix transpose), so a ``(length, n_blocks)`` plane holds one
bit per base and pair — row ``j`` is base ``j``, bit ``p`` of column ``b``
is pair ``64 * b + p``.  A shift by ``k`` bases is an offset of ``k`` rows,
streak amendment (:func:`amend_planes`) is five boolean operations on
row-offset views, :func:`count_plane_windows` ORs each window's rows and
sums every pair's bits, and :func:`crossing_planes` routes SneakySnake's
chip maze (one ``(2e+1, n_blocks)`` row of obstacle words per column) in
one sweep over the columns.

Every hot operation of the filtering stack (shifted mismatch masks, streak
amendment, edge forcing, the AND across masks, windowed edit counting,
zero-run boundary detection for MAGNET, Shouji's neighborhood map,
SneakySnake's chip maze and its routing) is a handful of shifts, boolean
word operations and popcounts on these arrays.

Popcounts use :func:`numpy.bitwise_count` when available (NumPy >= 2.0) and
fall back to a 256-entry byte lookup table on older NumPy builds.

Property tests (``tests/test_packed_kernels.py``,
``tests/test_filters_hypothesis.py``) pin every kernel here bit-for-bit
against the per-base reference across read lengths and thresholds, including
``N``-containing and length-1 edge cases and batches of more than one
64-pair block.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..genomics.encoding import BASES_PER_WORD_64, words_per_read

__all__ = [
    "LANE_MASK",
    "word_major",
    "popcount",
    "count_set_lanes",
    "shift_words_right_bits",
    "shift_words_left_bits",
    "shift_lanes_right",
    "shift_lanes_left",
    "lane_span_mask",
    "mismatch_lanes",
    "shifted_mismatch_lanes",
    "transpose_bit_blocks",
    "bit_planes",
    "amend_planes",
    "count_plane_windows",
    "crossing_planes",
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


def word_major(words: np.ndarray) -> np.ndarray:
    """Contiguous ``(n_words, n_pairs)`` copy of a pair-major word array."""
    return np.ascontiguousarray(np.asarray(words, dtype=_U64).T)


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
    """Set bits per pair of an ``(n_words, ...)`` mask (int32, summed over words)."""
    return popcount(words).sum(axis=0, dtype=np.int32)


# --------------------------------------------------------------------------- #
# Whole-bit-vector shifts with carry transfer (arbitrary distance)
# --------------------------------------------------------------------------- #


def shift_words_right_bits(words: np.ndarray, bits: int) -> np.ndarray:
    """Shift an ``(n_words, ...)`` bit-vector right by ``bits``, zeros shifted in.

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
    n_words = words.shape[0]
    out = np.empty_like(words)
    out[:word_shift] = 0
    if word_shift >= n_words:
        return out
    src = words[: n_words - word_shift]
    if bit_shift == 0:
        out[word_shift:] = src
    else:
        np.right_shift(src, _U64(bit_shift), out=out[word_shift:])
        out[word_shift + 1 :] |= src[:-1] << _U64(_WORD_BITS - bit_shift)
    return out


def shift_words_left_bits(words: np.ndarray, bits: int) -> np.ndarray:
    """Shift an ``(n_words, ...)`` bit-vector left by ``bits``, zeros shifted in."""
    if bits < 0:
        raise ValueError("bits must be non-negative")
    words = np.asarray(words, dtype=_U64)
    if bits == 0:
        return words.copy()
    word_shift, bit_shift = divmod(bits, _WORD_BITS)
    n_words = words.shape[0]
    out = np.empty_like(words)
    out[max(n_words - word_shift, 0) :] = 0
    if word_shift >= n_words:
        return out
    src = words[word_shift:]
    kept = n_words - word_shift
    if bit_shift == 0:
        out[:kept] = src
    else:
        np.left_shift(src, _U64(bit_shift), out=out[:kept])
        out[: kept - 1] |= src[1:] >> _U64(_WORD_BITS - bit_shift)
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
    """``(n_words, 1)`` uint64 column with the lane bits of positions [start, stop) set.

    The column broadcasts against any ``(n_words, n_pairs)`` word-major array.
    """
    start = max(0, start)
    stop = max(start, stop)
    return np.array(_lane_span_words(start, stop, n_words), dtype=_U64)[:, np.newaxis]


def mismatch_lanes(
    a_words: np.ndarray, b_words: np.ndarray, valid: np.ndarray
) -> np.ndarray:
    """Per-base difference lanes of two 2-bit encoded word arrays.

    XOR in 2-bit space, OR-fold each group into its low (lane) bit and keep
    only the ``valid`` lanes (positions inside the sequence).
    """
    x = np.bitwise_xor(np.asarray(a_words, dtype=_U64), np.asarray(b_words, dtype=_U64))
    x |= x >> _U64(1)
    x &= valid
    return x


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
    n_words = read_words.shape[0]
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
    if vacant_value:
        lanes = mismatch_lanes(shifted, ref_words, valid)
        lanes |= vacated
    else:
        lanes = mismatch_lanes(shifted, ref_words, valid & ~vacated)
    return lanes, vacated


# --------------------------------------------------------------------------- #
# Bit-sliced planes: one bit per pair, 64 pairs per word
# --------------------------------------------------------------------------- #


def transpose_bit_blocks(rows: np.ndarray) -> np.ndarray:
    """Transpose every 64 x 64 bit matrix along axis 0 of ``rows``, in place.

    ``rows`` is a C-contiguous ``(64, ...)`` uint64 array; for each position
    of the trailing axes, bit ``c`` of ``rows[r]`` and bit ``r`` of
    ``rows[c]`` trade places.  Six stages swap the off-diagonal blocks of
    widths 32, 16, ..., 1, each with one mask, two shifts and three XORs
    over half of the array (Hacker's Delight, section 7-3).
    """
    if rows.dtype != _U64 or rows.shape[:1] != (_WORD_BITS,) or not rows.flags.c_contiguous:
        raise ValueError("rows must be a C-contiguous (64, ...) uint64 array")
    flat = rows.reshape(_WORD_BITS, -1)
    n_cols = flat.shape[1]
    swap = np.empty(_WORD_BITS // 2 * n_cols, dtype=_U64)
    width, mask = _WORD_BITS // 2, _U64(0xFFFFFFFF)
    while width:
        # Rows r with bit `width` of r clear pair with rows r + width.
        groups = flat.reshape(_WORD_BITS // (2 * width), 2, width * n_cols)
        low, high = groups[:, 0], groups[:, 1]
        t = swap.reshape(low.shape)
        np.right_shift(low, _U64(width), out=t)
        t ^= high
        t &= mask
        high ^= t
        t <<= _U64(width)
        low ^= t
        width >>= 1
        mask ^= mask << _U64(width)
    return rows


def bit_planes(
    read_words: np.ndarray, ref_words: np.ndarray, length: int
) -> np.ndarray:
    """Bit-sliced code planes of a pair-major word batch, ``(2, 2, length, n_blocks)``.

    ``planes[side, bit, j]`` holds code bit ``bit`` (0 high, 1 low) of base
    ``j`` of the reads (``side`` 0) or the references (``side`` 1) for 64
    pairs per word: pair ``64 * b + p`` is bit ``p`` of column ``b``, and the
    pairs that pad the last block read as zeros.  Both sides go through one
    :func:`transpose_bit_blocks` call.
    """
    n_pairs, n_words = np.shape(read_words)
    n_full, n_tail = divmod(n_pairs, _WORD_BITS)
    n_blocks = n_full + (n_tail > 0)
    # One 64 x 64 bit matrix per (side, word, block): row p is pair p's word.
    blocks = np.empty((_WORD_BITS, 2, n_words, n_blocks), dtype=_U64)
    blocks[..., n_full:] = 0
    for side, words in enumerate((read_words, ref_words)):
        words = np.asarray(words, dtype=_U64)
        head = words[: n_full * _WORD_BITS].reshape(n_full, _WORD_BITS, n_words)
        blocks[:, side, :, :n_full] = head.transpose(1, 2, 0)
        blocks[:n_tail, side, :, n_full:] = words[n_full * _WORD_BITS :, :, np.newaxis]
    transpose_bit_blocks(blocks)
    # Row i now holds bit i of the word; base b of a word sits in bits
    # 63 - 2b (high) and 62 - 2b (low), so reversed rows are (base, bit).
    planes = blocks[::-1].reshape(BASES_PER_WORD_64, 2, 2, n_words, n_blocks)
    planes = planes.transpose(2, 1, 3, 0, 4).reshape(
        2, 2, n_words * BASES_PER_WORD_64, n_blocks
    )
    return planes[:, :, :length]


def amend_planes(
    padded: np.ndarray, max_zero_run: int = 2, out: np.ndarray | None = None
) -> np.ndarray:
    """Bit-sliced :func:`repro.filters.bitvector.amend_mask`.

    ``padded`` is a ``(length + 4, n_blocks)`` plane buffer: the mask in
    rows ``2 .. length + 1`` and two zero rows at each end, which stand for
    the sequence boundaries.  A zero is filled when ones sit at distances 1
    on both sides, or (runs of two) at distances 1 and 2; the neighbours
    are row-offset views of the buffer.  Returns the ``(length, n_blocks)``
    amended mask (written to ``out`` when given).
    """
    if max_zero_run not in (1, 2):
        raise ValueError("amend_planes supports max_zero_run of 1 or 2")
    length = padded.shape[0] - 4
    prev2, prev1, mask, next1, next2 = (padded[i : i + length] for i in range(5))
    if max_zero_run == 1:
        out = np.bitwise_and(prev1, next1, out=out)
    else:
        out = np.bitwise_or(next1, next2, out=out)
        out &= prev1
        out |= prev2 & next1
    out |= mask
    return out


def count_plane_windows(planes: np.ndarray, window: int = 4) -> np.ndarray:
    """Non-overlapping ``window``-base windows containing a set bit, per pair.

    The bit-sliced :func:`repro.filters.bitvector.count_set_windows` of a
    ``(length, n_blocks)`` plane array: the rows of each window are ORed,
    and each pair's bits are summed over the windows.  Returns
    ``(n_blocks * 64,)`` int32 counts in pair order.
    """
    length, n_blocks = planes.shape
    n_windows = -(-length // window)
    hits = np.zeros((n_windows, n_blocks), dtype=_U64)
    for offset in range(min(window, length)):
        rows = planes[offset::window]
        hits[: rows.shape[0]] |= rows
    bits = np.unpackbits(
        hits.astype("<u8", copy=False).view(np.uint8), axis=1, bitorder="little"
    )
    # The narrowest sum that cannot overflow: 8-bit for up to 255 windows.
    return bits.sum(axis=0, dtype=np.min_scalar_type(n_windows)).astype(np.int32)


def crossing_planes(obstacles: np.ndarray) -> np.ndarray:
    """SneakySnake's greedy crossings of a bit-sliced chip maze, in one sweep.

    ``obstacles`` is ``(length, n_diagonals, n_blocks)``: bit ``p`` of
    ``obstacles[j, i, b]`` marks an obstacle in column ``j`` of diagonal
    ``i`` for pair ``64 * b + p``.  A diagonal is dead once it has met an
    obstacle since the signal's last crossing; the signal crosses column
    ``j`` when every diagonal is dead there, and the crossing revives them
    all.  The last diagonal to die is the one whose next obstacle is the
    farthest, so the crossings are exactly the greedy walk's.  Three
    whole-array operations per column route every pair; returns the
    ``(length, n_blocks)`` crossing planes.
    """
    length, n_diagonals, n_blocks = obstacles.shape
    dead = np.zeros((n_diagonals, n_blocks), dtype=_U64)
    crossed = np.empty((length, n_blocks), dtype=_U64)
    for obstacle, crossing in zip(obstacles, crossed):
        dead |= obstacle
        np.bitwise_and.reduce(dead, axis=0, out=crossing)
        dead ^= crossing
    return crossed


# --------------------------------------------------------------------------- #
# Packing / unpacking between per-base masks and lane words
# --------------------------------------------------------------------------- #

_LANE_BIT_POSITIONS = (62 - 2 * np.arange(BASES_PER_WORD_64)).astype(_U64)


def pack_lanes(mask: np.ndarray) -> np.ndarray:
    """Pack a per-base 0/1 mask ``(..., length)`` into lane words ``(n_words, ...)``."""
    mask = np.asarray(mask, dtype=np.uint8)
    length = mask.shape[-1]
    n_words = words_per_read(length, _WORD_BITS)
    padded = np.zeros(mask.shape[:-1] + (n_words * BASES_PER_WORD_64,), dtype=_U64)
    padded[..., :length] = mask
    grouped = padded.reshape(mask.shape[:-1] + (n_words, BASES_PER_WORD_64))
    words = (grouped << _LANE_BIT_POSITIONS).sum(axis=-1, dtype=_U64)
    return np.ascontiguousarray(np.moveaxis(words, -1, 0))


def _unpack_word_bits(words: np.ndarray) -> np.ndarray:
    """All 64 bits of each word as a uint8 array ``(..., n_words * 64)``.

    ``words`` is word-major ``(n_words, ...)``; the output is pair-major with
    the bits of word 0 first.  Big-endian bit order (bit 0 of the output is
    the word's most significant bit), matching the lane layout's "first base
    in the top bits" rule — :func:`numpy.unpackbits` over the byte view is a
    byte-wide C loop, far cheaper than a 64x-expanded ``uint64`` shift
    broadcast.
    """
    words = np.ascontiguousarray(np.moveaxis(np.asarray(words, dtype=_U64), 0, -1))
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
    groups = bits.reshape(bits.shape[:-1] + (bits.shape[-1] // 2, 2))
    values = groups[..., 0] << 1
    values |= groups[..., 1]
    return values[..., :length]


def unpack_lanes(words: np.ndarray, length: int) -> np.ndarray:
    """Unpack lane words ``(n_words, ...)`` into a per-base uint8 mask ``(..., length)``.

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
    """Packed neighborhood maps: ``(2e+1, n_words, n_pairs)`` obstacle lanes.

    Entry ``i`` is the word-major mask of the mismatches along diagonal
    ``d = i - e`` (position ``j`` compares ``read[j]`` with ``ref[j + d]``);
    comparisons falling outside the reference segment are obstacles (1),
    padding lanes beyond the sequence length are 0.  This is the word-level
    form of :func:`repro.filters.shouji.neighborhood_map_batch`, built from
    the already-encoded word arrays with shifts and XORs only.
    """
    read_words = np.asarray(read_words, dtype=_U64)
    ref_words = np.asarray(ref_words, dtype=_U64)
    e = int(error_threshold)
    valid = lane_span_mask(0, length, read_words.shape[0])
    out = np.empty((2 * e + 1,) + read_words.shape, dtype=_U64)
    for i in range(2 * e + 1):
        d = i - e
        # Comparing read[j] with ref[j + d] is the shifted mismatch mask with
        # the roles swapped and the shift negated; out-of-range positions are
        # obstacles (vacant_value=1).
        out[i], _ = shifted_mismatch_lanes(
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
    the sentinel convention of MAGNET's reference extraction.  ``valid`` is
    the sequence's lane mask, broadcastable against ``masks``.
    """
    m = np.asarray(masks, dtype=_U64)
    zeros = (~m) & valid
    starts = zeros & ~shift_lanes_right(zeros, 1)
    ends = zeros & ~shift_lanes_left(zeros, 1)
    return starts, ends
