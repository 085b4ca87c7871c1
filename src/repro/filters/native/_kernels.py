"""Numba-compatible kernel sources for the native tier.

Every public function here is the scalar-loop form of a filter's NumPy batch
kernel (:func:`repro.filters.gatekeeper.gatekeeper_kernel`,
:func:`repro.filters.magnet.magnet_kernel`,
:func:`repro.filters.sneakysnake.sneakysnake_kernel`), written in the
restricted Python subset ``numba.njit`` compiles: explicit loops over typed
arrays, no fancy indexing, no Python objects.  When Numba is importable
the ``_jit`` decorator below applies ``njit(cache=True, nogil=True)`` —
``cache=True`` persists the compiled machine code across processes and
``nogil=True`` releases the GIL so the ``threads`` executor backend gets real
multi-worker scaling; when Numba is absent the functions stay plain Python,
which keeps them importable and differential-testable in every environment
(the hypothesis twins in ``tests/test_filters_hypothesis.py`` run them
uncompiled against the NumPy references).

The algorithms replicate the NumPy tier *exactly*, including every
tie-breaking rule (MAGNET's first-mask/leftmost-run/oldest-interval order,
SneakySnake's early exit, ``argmax``'s first-occurrence convention) — the
two tiers must produce bit-identical estimates, not merely identical
accept/reject decisions.

Word layout (the pair-major input of every kernel, shared with
:mod:`repro.filters.packed`): one ``uint64`` holds 32 bases, the first base
of a sequence sits in the most significant 2-bit group of word 0, so base
``j`` occupies bits ``62 - 2*(j % 32)`` (value) and the low bit of that
group is the mask lane.  The twins read those words one pair at a time; the
NumPy tier bit-slices them for whole-batch operations (planes with one bit
per pair, 64 pairs per word), which changes how the work is laid out, never
the estimates.
"""

from __future__ import annotations

import importlib.util

import numpy as np

__all__ = [
    "NUMBA_COMPILED",
    "gatekeeper_kernel",
    "sneakysnake_kernel",
    "magnet_kernel",
]

try:
    if importlib.util.find_spec("numba") is None:
        raise ImportError("numba is not installed")
    from numba import njit as _njit  # noqa: F401  (the only numba import site)

    def _jit(fn):  # type: ignore[no-untyped-def]
        return _njit(cache=True, nogil=True)(fn)

    NUMBA_COMPILED = True
except Exception:  # pragma: no cover - absence/breakage of an optional dep

    def _jit(fn):  # type: ignore[no-untyped-def]
        return fn

    NUMBA_COMPILED = False

_U64 = np.uint64
_THREE = np.uint64(3)


@_jit
def _code_at(words, row, j):  # type: ignore[no-untyped-def]
    """The 2-bit base code at position ``j`` of one packed row."""
    return int((words[row, j >> 5] >> np.uint64(62 - 2 * (j & 31))) & _THREE)


@_jit
def _gatekeeper_pairs(
    read_words, ref_words, length, e, edge_one, count_window, max_zero_run, shifts, out
):  # type: ignore[no-untyped-def]
    """Per-pair GateKeeper pipeline: shifted masks, amend, edge force, AND, count."""
    n_pairs = read_words.shape[0]
    mask = np.empty(length, dtype=np.uint8)
    final = np.empty(length, dtype=np.uint8)
    for p in range(n_pairs):
        for j in range(length):
            final[j] = 1
        for mi in range(shifts.shape[0]):
            s = shifts[mi]
            # Raw shifted mask; vacated positions normalised to 0 before the
            # amendment pass, exactly as the packed pipeline does.
            for j in range(length):
                jj = j - s
                if jj < 0 or jj >= length:
                    mask[j] = 0
                elif _code_at(read_words, p, jj) != _code_at(ref_words, p, j):
                    mask[j] = 1
                else:
                    mask[j] = 0
            # Amend: zero runs <= max_zero_run flanked by ones on both sides;
            # runs touching either sequence boundary stay untouched.
            j = 0
            while j < length:
                if mask[j]:
                    j += 1
                    continue
                run_start = j
                while j < length and not mask[j]:
                    j += 1
                if run_start > 0 and j < length and j - run_start <= max_zero_run:
                    for k in range(run_start, j):
                        mask[k] = 1
            # GateKeeper-GPU edge policy: force the vacated span to 1.
            if edge_one and s != 0:
                if s > 0:
                    hi = s if s < length else length
                    for j in range(hi):
                        mask[j] = 1
                else:
                    lo = length + s
                    if lo < 0:
                        lo = 0
                    for j in range(lo, length):
                        mask[j] = 1
            for j in range(length):
                final[j] &= mask[j]
        count = 0
        j = 0
        while j < length:
            hi = j + count_window
            if hi > length:
                hi = length
            for k in range(j, hi):
                if final[k]:
                    count += 1
                    break
            j += count_window
        out[p] = count


@_jit
def _sneakysnake_pairs(read_words, ref_words, length, e, out):  # type: ignore[no-untyped-def]
    """Greedy single-net routing per pair (reversed next-obstacle scan)."""
    n_pairs = read_words.shape[0]
    longest = np.empty(length, dtype=np.int32)
    for p in range(n_pairs):
        for j in range(length):
            longest[j] = 0
        for i in range(2 * e + 1):
            d = i - e
            nxt = length
            for j in range(length - 1, -1, -1):
                idx = j + d
                if (
                    idx < 0
                    or idx >= length
                    or _code_at(read_words, p, j) != _code_at(ref_words, p, idx)
                ):
                    nxt = j
                run = nxt - j
                if run > longest[j]:
                    longest[j] = run
        col = 0
        edits = 0
        while col < length:
            col += longest[col]
            if col >= length:
                break
            edits += 1
            col += 1
            if edits > e:
                break
        out[p] = edits


@_jit
def _magnet_best_segment(run_starts, run_ends, n_runs, lo, hi):  # type: ignore[no-untyped-def]
    """Longest clipped zero run inside [lo, hi): first-occurrence argmax."""
    best_len = -(1 << 30)
    best_start = lo
    for k in range(n_runs):
        cs = run_starts[k]
        if lo > cs:
            cs = lo
        ce = run_ends[k]
        if hi < ce:
            ce = hi
        cl = ce - cs
        if cl > best_len:
            best_len = cl
            best_start = cs
    if n_runs == 0 or best_len <= 0:
        return lo, 0
    return best_start, best_len


@_jit
def _magnet_extract(run_starts, run_ends, n_runs, n, e):  # type: ignore[no-untyped-def]
    """Divide-and-conquer extraction, replaying the scalar reference's order.

    The interval list is kept in insertion order (pop shifts left, appends go
    at the end) and the per-round winner is the strictly-longest cached
    segment scanned front to back — the exact tie-breaking of
    ``MagnetFilter._extract_from_runs``.
    """
    max_slots = e + 2
    lo = np.empty(max_slots, dtype=np.int64)
    hi = np.empty(max_slots, dtype=np.int64)
    blen = np.empty(max_slots, dtype=np.int64)
    bstart = np.empty(max_slots, dtype=np.int64)
    lo[0] = 0
    hi[0] = n
    bstart[0], blen[0] = _magnet_best_segment(run_starts, run_ends, n_runs, 0, n)
    count = 1
    covered = 0
    extracted = 0
    while count > 0 and extracted < e + 1:
        best_idx = -1
        best_len = 0
        for idx in range(count):
            if blen[idx] > 0 and blen[idx] > best_len:
                best_len = blen[idx]
                best_idx = idx
        if best_idx < 0:
            break
        seg_start = bstart[best_idx]
        seg_len = blen[best_idx]
        interval_lo = lo[best_idx]
        interval_hi = hi[best_idx]
        for t in range(best_idx, count - 1):
            lo[t] = lo[t + 1]
            hi[t] = hi[t + 1]
            blen[t] = blen[t + 1]
            bstart[t] = bstart[t + 1]
        count -= 1
        covered += seg_len
        extracted += 1
        # Recurse left and right, one divider base on each side.
        new_lo = interval_lo
        new_hi = seg_start - 1
        if new_hi - new_lo > 0:
            lo[count] = new_lo
            hi[count] = new_hi
            bstart[count], blen[count] = _magnet_best_segment(
                run_starts, run_ends, n_runs, new_lo, new_hi
            )
            count += 1
        new_lo = seg_start + seg_len + 1
        new_hi = interval_hi
        if new_hi - new_lo > 0:
            lo[count] = new_lo
            hi[count] = new_hi
            bstart[count], blen[count] = _magnet_best_segment(
                run_starts, run_ends, n_runs, new_lo, new_hi
            )
            count += 1
    return n - covered


@_jit
def _magnet_pairs(read_words, ref_words, length, e, shifts, out):  # type: ignore[no-untyped-def]
    """Per-pair MAGNET: zero runs of all masks in (mask, position) order."""
    n_pairs = read_words.shape[0]
    n_masks = shifts.shape[0]
    max_runs = n_masks * (length // 2 + 1)
    run_starts = np.empty(max_runs, dtype=np.int64)
    run_ends = np.empty(max_runs, dtype=np.int64)
    for p in range(n_pairs):
        n_runs = 0
        for mi in range(n_masks):
            s = shifts[mi]
            in_zero = False
            run_start = 0
            for j in range(length):
                jj = j - s
                # MAGNET treats vacant positions as mismatches (edge fix).
                if jj < 0 or jj >= length:
                    bit = 1
                elif _code_at(read_words, p, jj) != _code_at(ref_words, p, j):
                    bit = 1
                else:
                    bit = 0
                if bit == 0:
                    if not in_zero:
                        run_start = j
                        in_zero = True
                elif in_zero:
                    run_starts[n_runs] = run_start
                    run_ends[n_runs] = j
                    n_runs += 1
                    in_zero = False
            if in_zero:
                run_starts[n_runs] = run_start
                run_ends[n_runs] = length
                n_runs += 1
        out[p] = _magnet_extract(run_starts, run_ends, n_runs, length, e)


# --------------------------------------------------------------------------- #
# Dispatchable wrappers (the functions the registry exposes)
# --------------------------------------------------------------------------- #
def _mask_shifts(error_threshold: int) -> np.ndarray:
    """The mask shift schedule ``[0, 1, -1, ..., e, -e]`` as an int64 array."""
    e = int(error_threshold)
    shifts = np.empty(2 * e + 1, dtype=np.int64)
    shifts[0] = 0
    for k in range(1, e + 1):
        shifts[2 * k - 1] = k
        shifts[2 * k] = -k
    return shifts


def gatekeeper_kernel(
    read_words: np.ndarray,
    ref_words: np.ndarray,
    length: int,
    error_threshold: int,
    edge_one: bool,
    count_window: int,
    max_zero_run: int,
) -> np.ndarray:
    """Native twin of :func:`repro.filters.gatekeeper.gatekeeper_kernel`."""
    read_words = np.ascontiguousarray(read_words, dtype=_U64)
    ref_words = np.ascontiguousarray(ref_words, dtype=_U64)
    out = np.empty(read_words.shape[0], dtype=np.int32)
    if length == 0:
        out[:] = 0
        return out
    _gatekeeper_pairs(
        read_words,
        ref_words,
        int(length),
        int(error_threshold),
        bool(edge_one),
        int(count_window),
        int(max_zero_run),
        _mask_shifts(error_threshold),
        out,
    )
    return out


def sneakysnake_kernel(
    read_words: np.ndarray,
    ref_words: np.ndarray,
    length: int,
    error_threshold: int,
) -> np.ndarray:
    """Native twin of :func:`repro.filters.sneakysnake.sneakysnake_kernel`."""
    read_words = np.ascontiguousarray(read_words, dtype=_U64)
    ref_words = np.ascontiguousarray(ref_words, dtype=_U64)
    out = np.empty(read_words.shape[0], dtype=np.int32)
    if length == 0:
        out[:] = 0
        return out
    _sneakysnake_pairs(read_words, ref_words, int(length), int(error_threshold), out)
    return out


def magnet_kernel(
    read_words: np.ndarray,
    ref_words: np.ndarray,
    length: int,
    error_threshold: int,
) -> np.ndarray:
    """Native twin of :func:`repro.filters.magnet.magnet_kernel`."""
    read_words = np.ascontiguousarray(read_words, dtype=_U64)
    ref_words = np.ascontiguousarray(ref_words, dtype=_U64)
    out = np.empty(read_words.shape[0], dtype=np.int32)
    if length == 0:
        out[:] = 0
        return out
    _magnet_pairs(
        read_words,
        ref_words,
        int(length),
        int(error_threshold),
        _mask_shifts(error_threshold),
        out,
    )
    return out
