"""Banded (Ukkonen) edit-distance computation.

The verification stage of a read mapper only needs to know whether the edit
distance is within the error threshold ``e``; restricting the dynamic
programming to a diagonal band of half-width ``e`` reduces the work from
``O(n*m)`` to ``O(n*e)`` and is what mrFAST-style verifiers do in practice.

Two implementations compute the same capped distance, ``min(distance, e+1)``:

* :func:`banded_edit_distance` — one pair of strings, a dict-based row DP.
  It is the scalar oracle the batch form is tested against.
* :func:`banded_edit_distances` — every row of a batch of equal-length 2-bit
  code arrays at once (the codes of an
  :class:`~repro.genomics.encoding.EncodedPairBatch`), the form the
  verification stage runs.

Batch layout
------------
The band of DP row ``i`` (read bases ``1..i``) holds the cells
``j = i - e .. i + e`` (reference bases ``1..j``).  It is stored
diagonal-major, ``(2e+1, n_pairs)`` int32: band slot ``k = j - i + e`` is
one contiguous vector across all pairs.  From one row to the next, cell
``(i, j)`` reads the diagonal ``(i-1, j-1)`` from slot ``k`` and the cell
above, ``(i-1, j)``, from slot ``k + 1``; every read base costs one vector
pass over the band.  Reference codes are padded with ``e`` columns on each
side, so row ``i``'s window is one slice; what the padding holds never
matters.  The cells of row 0 left of the matrix (``j < 0``) start at the
cap, ``e + 1``, and nothing derived from them falls below it, so they never
lower a capped answer.  Cells right of the matrix (``j > m``) never feed a
cell inside it.

The in-row dependency, the insertion ``(i, j-1) + 1``, is a running minimum
along the band: ``D[k] = min(t[k], D[k-1] + 1)`` is
``minimum.accumulate(t - arange) + arange``.  The band is kept shifted by
``-arange`` from row to row, so that step is a plain running minimum with
nothing to add back.  It runs as ``2e`` vector ``minimum`` calls along the
band, which at survivor-batch sizes is several times faster than
``np.minimum.accumulate`` along either axis.

Codes are compared for equality only.  Batch codes keep every non-ACGT
byte distinct (two bases get equal codes exactly when their upper-cased
bytes are equal), so undefined pairs (an ``N`` on either side) are scored
here too, exactly as the string form scores their upper-cased strings:
an ``N`` matches only an ``N``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["banded_edit_distance", "banded_edit_distances", "within_threshold"]

_INF = 1 << 30


def banded_edit_distance(a: str, b: str, band: int) -> int:
    """Edit distance if it is at most ``band``, otherwise ``band + 1``.

    The returned value is exact whenever it is ``<= band``; values above the
    band are truncated to ``band + 1`` (the caller only needs the comparison).
    """
    n, m = len(a), len(b)
    if band < 0:
        raise ValueError("band must be non-negative")
    if abs(n - m) > band:
        return band + 1
    if n == 0:
        return m if m <= band else band + 1
    if m == 0:
        return n if n <= band else band + 1

    previous = {j: j for j in range(0, min(m, band) + 1)}
    for i in range(1, n + 1):
        current: dict[int, int] = {}
        lo = max(0, i - band)
        hi = min(m, i + band)
        if lo == 0:
            current[0] = i
            lo = 1
        ai = a[i - 1]
        for j in range(lo, hi + 1):
            cost = 0 if ai == b[j - 1] else 1
            best = previous.get(j - 1, _INF) + cost
            up = previous.get(j, _INF) + 1
            left = current.get(j - 1, _INF) + 1
            current[j] = min(best, up, left)
        if min(current.values()) > band:
            return band + 1
        previous = current
    result = previous.get(m, _INF)
    return result if result <= band else band + 1


def banded_edit_distances(
    read_codes: np.ndarray, ref_codes: np.ndarray, band: int
) -> np.ndarray:
    """Per-row :func:`banded_edit_distance` of two ``(n, length)`` code arrays.

    Row ``r`` of the result is ``min(edit distance, band + 1)`` between
    ``read_codes[r]`` and ``ref_codes[r]``, as int32 (see the module
    docstring for the layout).
    """
    if band < 0:
        raise ValueError("band must be non-negative")
    if read_codes.shape != ref_codes.shape or read_codes.ndim != 2:
        raise ValueError("read and reference codes must be (n, length) arrays of one shape")
    n, length = read_codes.shape
    width = 2 * band + 1
    reads = np.ascontiguousarray(read_codes.T)
    refs = np.zeros((length + 2 * band, n), dtype=np.uint8)
    refs[band : band + length] = ref_codes.T
    slots = np.arange(width, dtype=np.int32)[:, np.newaxis]
    # Row 0: D[0][j] = j, and band + 1 left of the matrix; stored minus k.
    cells = np.repeat(np.where(slots >= band, slots - band, band + 1) - slots, n, axis=1)
    deletion = np.empty((width - 1, n), dtype=np.int32)
    mismatch = np.empty((width, n), dtype=bool)
    # (slot k, slot k - 1) views, built once: the scan below is 2e small
    # calls per read base, and building views would cost as much as the work.
    scan = [(cells[k], cells[k - 1]) for k in range(1, width)]
    for i in range(length):
        # Deletion: D[i-1][j] + 1 sits one slot up (+1 more for the shift).
        np.add(cells[1:], 2, out=deletion)
        # Diagonal: D[i-1][j-1] + mismatch, from the same slot.
        np.not_equal(refs[i : i + width], reads[i], out=mismatch)
        np.add(cells, mismatch, out=cells)
        np.minimum(cells[:-1], deletion, out=cells[:-1])
        # Insertion: D[i][j-1] + 1, the running minimum along the band.
        for cell, left in scan:
            np.minimum(cell, left, out=cell)
    return np.minimum(cells[band] + band, band + 1).astype(np.int32)


def within_threshold(a: str, b: str, threshold: int) -> bool:
    """True if the edit distance between ``a`` and ``b`` is at most ``threshold``."""
    return banded_edit_distance(a, b, threshold) <= threshold
