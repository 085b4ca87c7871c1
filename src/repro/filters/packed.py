"""Bit-sliced mask kernels (the GPU's one thread per filtration, vectorised).

The per-base ``uint8`` mask helpers of :mod:`repro.filters.bitvector` are the
*reference* implementation: one array element per base, easy to read, easy to
verify.  This module is the *fast* implementation the engine actually runs.

:func:`bit_planes` transposes each 64-pair block of an
:class:`~repro.genomics.encoding.EncodedPairBatch`'s pair-major words once
(:func:`transpose_bit_blocks`, a 64 x 64 bit-matrix transpose), so a
``(length, n_blocks)`` plane holds one bit per base and pair — row ``j`` is
base ``j``, bit ``p`` of column ``b`` is pair ``64 * b + p``.  A shift by
``k`` bases is an offset of ``k`` rows, so a shifted mismatch mask
(:func:`shifted_mismatch_planes`) is two XORs and an OR of row-offset views,
and the chip maze of SneakySnake and Shouji (:func:`chip_maze`, one
``(2e+1, n_blocks)`` row of obstacle words per column) is ``2e+1`` of them.
Streak amendment (:func:`amend_planes`) is five boolean operations on
row-offset views, :func:`count_plane_windows` ORs each window's rows and
sums every pair's bits, :func:`crossing_planes` routes the chip maze in one
sweep over its columns, and :func:`unpack_planes` turns planes back into
pair order (one inverse transpose, one ``unpackbits``), which is how MAGNET
reads its zero-run markers.

Property tests (``tests/test_packed_kernels.py``,
``tests/test_filters_hypothesis.py``, ``tests/test_bit_sliced_kernel.py``)
pin every kernel here bit-for-bit against the per-base reference across read
lengths and thresholds, including ``N``-containing and length-1 edge cases
and batches of more than one 64-pair block.
"""

from __future__ import annotations

import numpy as np

from ..genomics.encoding import BASES_PER_WORD_64

__all__ = [
    "transpose_bit_blocks",
    "bit_planes",
    "shifted_mismatch_planes",
    "chip_maze",
    "amend_planes",
    "count_plane_windows",
    "crossing_planes",
    "unpack_planes",
]

_U64 = np.uint64
_WORD_BITS = 64


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


def shifted_mismatch_planes(
    read: np.ndarray, ref: np.ndarray, shift: int, out: np.ndarray, diff: np.ndarray
) -> slice:
    """Bit-sliced :func:`repro.filters.bitvector.shifted_mask`, written to ``out``.

    ``read`` and ``ref`` are ``(2, length, n_blocks)`` code planes (the two
    sides of :func:`bit_planes`) and ``diff`` is scratch of their shape.
    Row ``j`` of the ``(length, n_blocks)`` plane ``out`` receives the
    mismatch bits of ``read[j - shift]`` against ``ref[j]``: two XORs and an
    OR of row-offset views.  The rows with no read base to compare are left
    as they were, and their slice is returned for the caller's edge policy.
    """
    length = read.shape[1]
    k = min(abs(shift), length)
    kept = length - k
    if shift >= 0:
        read_rows, compared, vacated = slice(0, kept), slice(k, length), slice(0, k)
    else:
        read_rows, compared, vacated = slice(k, length), slice(0, kept), slice(kept, length)
    np.bitwise_xor(read[:, read_rows], ref[:, compared], out=diff[:, :kept])
    np.bitwise_or(diff[0, :kept], diff[1, :kept], out=out[compared])
    return vacated


def chip_maze(read: np.ndarray, ref: np.ndarray, error_threshold: int) -> np.ndarray:
    """The bit-sliced neighborhood map of SneakySnake and Shouji.

    ``read`` and ``ref`` are the ``(2, length, n_blocks)`` code planes of
    :func:`bit_planes`.  Bit ``p`` of ``maze[j, i, b]`` of the returned
    ``(length, 2e+1, n_blocks)`` maze marks an obstacle (a mismatch) of read
    base ``j`` against reference base ``j + i - e`` for pair ``64 * b + p``;
    cells whose reference base lies outside the segment are obstacles.  It
    is :func:`repro.filters.shouji.neighborhood_map_batch` with the columns
    as rows and 64 pairs per word.
    """
    e = int(error_threshold)
    length, n_blocks = read.shape[1:]
    maze = np.full((length, 2 * e + 1, n_blocks), ~_U64(0))
    diff = np.empty_like(read)
    for i in range(2 * e + 1):
        # Read row j meets reference row j + i - e: the reference's mismatch
        # rows at shift e - i.  The rows that shift vacates stay obstacles.
        shifted_mismatch_planes(ref, read, e - i, maze[:, i], diff)
    return maze


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


def unpack_planes(planes: np.ndarray, n_pairs: int) -> np.ndarray:
    """The bits of ``(n_rows, n_blocks)`` planes in pair order, ``(n_pairs, n_rows)``.

    The inverse of bit slicing: entry ``[p, r]`` (bool) is bit ``p % 64`` of
    ``planes[r, p // 64]``.  Each 64-row group of the planes goes through
    one :func:`transpose_bit_blocks` call, after which word ``g`` of a pair
    holds its rows ``64 g`` to ``64 g + 63``, and one
    :func:`numpy.unpackbits` of the pair-major words lays each pair's rows
    out in order.
    """
    n_rows, n_blocks = planes.shape
    n_full, n_tail = divmod(n_rows, _WORD_BITS)
    n_groups = n_full + (n_tail > 0)
    # One 64 x 64 bit matrix per (group, block): row r is plane row 64 g + r.
    words = np.empty((_WORD_BITS, n_groups, n_blocks), dtype=_U64)
    words[:, n_full:] = 0
    head = planes[: n_full * _WORD_BITS].reshape(n_full, _WORD_BITS, n_blocks)
    words[:, :n_full] = head.transpose(1, 0, 2)
    words[:n_tail, n_full:] = planes[n_full * _WORD_BITS :, np.newaxis]
    transpose_bit_blocks(words)
    # Bit r of words[p, g, b] is now row 64 g + r of pair 64 b + p.
    pair_major = np.ascontiguousarray(words.transpose(2, 0, 1), dtype="<u8")
    bits = np.unpackbits(pair_major.view(np.uint8), axis=-1, bitorder="little")
    bits = bits.reshape(n_blocks * _WORD_BITS, n_groups * _WORD_BITS).view(bool)
    return bits[:n_pairs, :n_rows]
