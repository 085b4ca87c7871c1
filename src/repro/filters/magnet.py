"""MAGNET pre-alignment filter.

MAGNET (Alser et al., 2017) improves on SHD/GateKeeper by replacing the
AND-and-count step with a *divide and conquer extraction of the longest
non-overlapping zero segments*: the longest run of zeros across all masks is
identified and "encapsulated", the search then recurses into the regions to
its left and right, and at most ``e + 1`` segments are extracted (a pair
within ``e`` edits consists of at most ``e + 1`` exactly matching fragments).
The number of bases not covered by the extracted segments approximates the
edit distance much more tightly than GateKeeper's windowed count, at the cost
of occasionally rejecting a valid pair (the greedy extraction is not optimal),
which matches the false rejects the paper observes for MAGNET.

The batch path (:meth:`MagnetFilter.estimate_edits_words`) bit-slices each
block of 64 pairs once (:func:`repro.filters.packed.bit_planes`), as every
NumPy kernel here does: the ``2e+1`` masks are row-offset XORs of the code
planes, in the reference coordinates the GateKeeper kernel uses
(:func:`repro.filters.packed.shifted_mismatch_planes`), and the zero-run
start and end markers are ANDs of row-offset views of the zeros.  One
inverse transpose (:func:`repro.filters.packed.unpack_planes`) turns the
markers back into pair order, and the segment extraction runs *for all
pairs at once*: the zero runs of every mask are gathered into one padded
``(n_pairs, max_runs)`` table, and the divide-and-conquer recursion becomes a
round-synchronous state machine — each of the at most ``e + 1`` rounds
selects every pair's globally longest remaining segment with two ``argmax``
reductions, pops the interval it lived in and appends the flanking
sub-intervals, all as whole-batch NumPy operations
(:meth:`MagnetFilter._extract_batch`).  The selection order reproduces the
scalar reference's (:meth:`MagnetFilter.estimate_edits_codes`) tie-breaking
exactly (first mask, then leftmost run, then oldest interval), so batched and
scalar estimates stay identical; only the per-pair Python loop is gone.
"""

from __future__ import annotations

import numpy as np

from .base import PreAlignmentFilter
from .bitvector import shifted_mask
from .native import DEFAULT_KERNEL_TIER, resolve
from .packed import bit_planes, shifted_mismatch_planes, unpack_planes

__all__ = ["MagnetFilter", "magnet_kernel"]


def magnet_kernel(
    read_words: np.ndarray,
    ref_words: np.ndarray,
    length: int,
    error_threshold: int,
) -> np.ndarray:
    """Pure-NumPy MAGNET estimates for a batch of packed pairs.

    The registered reference implementation of the ``magnet_kernel`` native
    pair: bit-sliced masks and zero-run markers, one inverse transpose back
    to pair order and the whole-batch extraction state machine, in blocks of
    :attr:`MagnetFilter._EXTRACT_BLOCK` pairs, returning int32 estimates
    bit-identical to the Numba twin's per-pair divide-and-conquer.
    """
    flt = MagnetFilter(error_threshold)
    n_pairs = len(read_words)
    estimates = np.empty(n_pairs, dtype=np.int32)
    block_size = MagnetFilter._EXTRACT_BLOCK
    for start in range(0, n_pairs, block_size):
        block = slice(start, start + block_size)
        estimates[block] = flt._estimate_words_block(
            read_words[block], ref_words[block], int(length)
        )
    return estimates


def _zero_runs_all_masks(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, ends)`` of every maximal zero run of every mask row.

    Runs of all ``(n_masks, n)`` rows are concatenated in (mask, position)
    order — the order the scalar reference scans them in, which is what makes
    a single ``argmax`` reproduce its tie-breaking (first mask, then leftmost
    run) exactly.
    """
    n_masks, n = masks.shape
    bounded = np.ones((n_masks, n + 2), dtype=np.int8)
    bounded[:, 1:-1] = masks
    diff = np.diff(bounded, axis=1)
    _, starts = np.nonzero(diff == -1)
    _, ends = np.nonzero(diff == 1)
    return starts, ends


class MagnetFilter(PreAlignmentFilter):
    """MAGNET: longest-zero-segment extraction filter."""

    name = "MAGNET"
    native_kernel = "magnet_kernel"

    def __init__(self, error_threshold: int):
        super().__init__(error_threshold)

    # ------------------------------------------------------------------ #
    # Algorithm
    # ------------------------------------------------------------------ #
    @staticmethod
    def _longest_zero_segment(
        run_starts: np.ndarray, run_ends: np.ndarray, start: int, end: int
    ) -> tuple[int, int]:
        """Longest zero run of any single mask inside ``[start, end)``.

        ``run_starts`` / ``run_ends`` are the concatenated runs of all masks
        (from :func:`_zero_runs_all_masks`), clipped to the interval here.
        ``argmax`` over that ordering reproduces the scalar reference's
        tie-breaking: first mask wins, then the leftmost run.
        """
        if run_starts.size == 0:
            return start, 0
        clipped_starts = np.maximum(run_starts, start)
        clipped_lens = np.minimum(run_ends, end) - clipped_starts
        k = int(np.argmax(clipped_lens))
        if clipped_lens[k] <= 0:
            return start, 0
        return int(clipped_starts[k]), int(clipped_lens[k])

    def _estimate_from_masks(self, masks: np.ndarray) -> int:
        """Divide-and-conquer extraction on one pair's ``(2e+1, n)`` mask stack."""
        run_starts, run_ends = _zero_runs_all_masks(masks)
        return self._extract_from_runs(run_starts, run_ends, masks.shape[1])

    def _extract_from_runs(
        self, run_starts: np.ndarray, run_ends: np.ndarray, n: int
    ) -> int:
        """Divide-and-conquer extraction given the zero runs of all masks.

        ``run_starts`` / ``run_ends`` are the concatenated maximal zero runs
        of every mask in (mask, position) order, however they were detected
        (per-base diff or packed markers).
        """
        e = self.error_threshold
        covered = 0
        # Intervals still to be searched, processed longest-segment-first.
        # An interval's best segment never changes once computed (the masks
        # are fixed), so it is cached across extraction rounds.
        intervals: list[tuple[int, int]] = [(0, n)]
        best_by_interval: dict[tuple[int, int], tuple[int, int]] = {}
        extracted = 0
        while intervals and extracted < e + 1:
            # Pick the interval whose best zero segment is globally longest.
            best = None  # (length, seg_start, interval_index)
            for idx, (lo, hi) in enumerate(intervals):
                cached = best_by_interval.get((lo, hi))
                if cached is None:
                    cached = self._longest_zero_segment(run_starts, run_ends, lo, hi)
                    best_by_interval[(lo, hi)] = cached
                seg_start, seg_len = cached
                if seg_len > 0 and (best is None or seg_len > best[0]):
                    best = (seg_len, seg_start, idx)
            if best is None:
                break
            seg_len, seg_start, idx = best
            lo, hi = intervals.pop(idx)
            covered += seg_len
            extracted += 1
            # Recurse left and right of the extracted segment, leaving a one
            # base divider on each side (the edit that separates segments).
            left = (lo, seg_start - 1)
            right = (seg_start + seg_len + 1, hi)
            for new_lo, new_hi in (left, right):
                if new_hi - new_lo > 0:
                    intervals.append((new_lo, new_hi))
        return n - covered

    # ------------------------------------------------------------------ #
    # Batched extraction (whole-batch state machine)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _best_segment(
        run_starts: np.ndarray,
        run_ends: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vector form of :meth:`_longest_zero_segment` for one interval per row.

        ``run_starts`` / ``run_ends`` are the padded per-row run tables;
        padding entries are sentinels whose clipped length is below any real
        run's, so the row-wise ``argmax`` reproduces the scalar tie-breaking
        (first mask, then leftmost run — the table's order).
        """
        clipped_starts = np.maximum(run_starts, lo[:, np.newaxis])
        clipped_lens = np.minimum(run_ends, hi[:, np.newaxis])
        clipped_lens -= clipped_starts
        k = np.argmax(clipped_lens, axis=1)
        picked = np.arange(len(k))
        lengths = np.maximum(clipped_lens[picked, k], 0)
        starts = np.where(lengths > 0, clipped_starts[picked, k], lo)
        return lengths, starts

    def _extract_batch(
        self, run_starts: np.ndarray, run_ends: np.ndarray, n: int
    ) -> np.ndarray:
        """Divide-and-conquer extraction of all rows of a padded run table.

        Replays :meth:`_extract_from_runs` for every pair simultaneously.
        Per-pair state is the live interval list (at most ``e + 2`` slots,
        kept in the scalar code's list order: pop shifts left, appends go at
        the end) plus each interval's cached best segment.  Every round
        extracts one segment per still-active pair; pairs go inactive when no
        positive segment remains or ``e + 1`` segments are out.
        """
        e = self.error_threshold
        n_pairs, n_runs = run_starts.shape
        if n == 0:
            return np.zeros(n_pairs, dtype=np.int32)
        if n_runs == 0:  # no zero run anywhere: nothing is ever covered
            return np.full(n_pairs, n, dtype=np.int32)
        max_slots = e + 2
        slot_index = np.arange(max_slots)
        # Interval state lives in the run table's (usually 16-bit) dtype —
        # the clipping scans in _best_segment are memory-bound, so narrow
        # lanes buy real throughput.
        dtype = run_starts.dtype
        interval_lo = np.zeros((n_pairs, max_slots), dtype=dtype)
        interval_hi = np.zeros((n_pairs, max_slots), dtype=dtype)
        best_len = np.zeros((n_pairs, max_slots), dtype=dtype)
        best_start = np.zeros((n_pairs, max_slots), dtype=dtype)
        slot_count = np.ones(n_pairs, dtype=np.int32)
        covered = np.zeros(n_pairs, dtype=np.int32)

        interval_hi[:, 0] = n
        best_len[:, 0], best_start[:, 0] = self._best_segment(
            run_starts,
            run_ends,
            interval_lo[:, 0],
            interval_hi[:, 0],
        )

        def append(rows, new_lo, new_hi):
            keep = (new_hi - new_lo) > 0
            rows, new_lo, new_hi = rows[keep], new_lo[keep], new_hi[keep]
            if rows.size == 0:
                return
            slot = slot_count[rows]
            interval_lo[rows, slot] = new_lo
            interval_hi[rows, slot] = new_hi
            best_len[rows, slot], best_start[rows, slot] = self._best_segment(
                run_starts[rows], run_ends[rows], new_lo, new_hi
            )
            slot_count[rows] += 1

        active = np.ones(n_pairs, dtype=bool)
        for _ in range(e + 1):
            rows = np.flatnonzero(active)
            if rows.size == 0:
                break
            # The globally longest cached segment; dead slots count as 0, and
            # argmax's first-occurrence rule is the scalar code's strict-">"
            # scan over the interval list.
            lengths = np.where(
                slot_index[np.newaxis, :] < slot_count[rows, np.newaxis],
                best_len[rows],
                0,
            )
            chosen = np.argmax(lengths, axis=1)
            seg_len = lengths[np.arange(len(rows)), chosen]
            alive = seg_len > 0
            active[rows[~alive]] = False  # no positive segment left: stop
            rows, chosen, seg_len = rows[alive], chosen[alive], seg_len[alive]
            if rows.size == 0:
                break
            lo = interval_lo[rows, chosen]
            hi = interval_hi[rows, chosen]
            seg_start = best_start[rows, chosen]
            covered[rows] += seg_len
            # list.pop(chosen): shift the later slots left by one.
            gather = np.minimum(
                slot_index[np.newaxis, :] + (slot_index[np.newaxis, :] >= chosen[:, np.newaxis]),
                max_slots - 1,
            )
            take = np.arange(len(rows))[:, np.newaxis]
            for state in (interval_lo, interval_hi, best_len, best_start):
                state[rows] = state[rows][take, gather]
            slot_count[rows] -= 1
            # Recurse left and right of the extracted segment, leaving a one
            # base divider on each side (the edit that separates segments).
            append(rows, lo, seg_start - 1)
            append(rows, seg_start + seg_len + 1, hi)
        return (n - covered).astype(np.int32)

    @staticmethod
    def _pad_runs(
        rows: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        n_pairs: int,
        n: int,
        counts: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Scatter (row-sorted) runs into padded ``(n_pairs, max_runs)`` tables.

        ``rows`` must be non-decreasing with runs already in (mask, position)
        order within each row — exactly what row-major ``flatnonzero``
        produces — and ``counts`` holds the runs per row.  Padding sentinels
        clip to lengths below any real run's.
        """
        max_runs = int(counts.max()) if counts.size else 0
        # Positions fit 16 bits for any realistic read; the sentinel values
        # (+-(n + 2)) must fit too, with headroom for the clipping arithmetic.
        dtype = np.int16 if n + 2 < 2**14 else np.int32
        run_starts = np.full((n_pairs, max_runs), n + 2, dtype=dtype)
        run_ends = np.full((n_pairs, max_runs), -(n + 2), dtype=dtype)
        if rows.size:
            offsets = np.concatenate(
                ([0], np.cumsum(counts, dtype=np.int64))
            ).astype(np.int32)
            flat_index = rows.astype(np.int32) * np.int32(max_runs)
            flat_index += np.arange(rows.size, dtype=np.int32) - offsets[rows]
            run_starts.ravel()[flat_index] = starts
            run_ends.ravel()[flat_index] = ends
        return run_starts, run_ends

    def estimate_edits_codes(self, read_codes: np.ndarray, ref_codes: np.ndarray) -> int:
        read_codes = np.asarray(read_codes, dtype=np.uint8)
        ref_codes = np.asarray(ref_codes, dtype=np.uint8)
        e = self.error_threshold
        shifts = [0] + [s for k in range(1, e + 1) for s in (k, -k)]
        # MAGNET treats vacant positions as mismatches so that edge errors
        # are not hidden (this is one of its fixes over SHD).
        masks = np.stack(
            [shifted_mask(read_codes, ref_codes, shift, vacant_value=1) for shift in shifts]
        )
        return self._estimate_from_masks(masks)

    #: Pairs per processing block of the batch path: keeps every temporary
    #: (mask stacks, marker bitmaps, padded run tables) cache-sized and the
    #: run-table padding width local to the block.
    _EXTRACT_BLOCK = 2048

    def estimate_edits_words(
        self,
        read_words: np.ndarray,
        ref_words: np.ndarray,
        length: int,
        tier: str = DEFAULT_KERNEL_TIER,
    ) -> np.ndarray:
        """Packed-word MAGNET over pre-encoded word arrays.

        The ``2e+1`` masks are bit-sliced shifted mismatch planes (vacant
        positions stay 1, MAGNET's edge fix), every maximal zero run is
        located by start/end marker planes, and only those markers are
        turned back into pair order — straight into the whole-batch
        :meth:`_extract_batch` state machine (no per-pair Python loop).
        ``tier`` selects the kernel tier; both tiers return bit-identical
        estimates.
        """
        kernel, _ = resolve("magnet_kernel", tier)
        return kernel(read_words, ref_words, length, self.error_threshold)

    def _estimate_words_block(
        self, read_words: np.ndarray, ref_words: np.ndarray, length: int
    ) -> np.ndarray:
        n_pairs = len(read_words)
        e = self.error_threshold
        shifts = [0] + [s for k in range(1, e + 1) for s in (k, -k)]
        read, ref = bit_planes(read_words, ref_words, length)
        n_blocks = read.shape[-1]
        # Mask rows 1 .. length hold positions 0 .. length - 1; the mismatch
        # rows around them close the zero runs at the sequence boundaries.
        masks = np.full((len(shifts), length + 2, n_blocks), ~np.uint64(0))
        diff = np.empty_like(read)
        for mask, shift in zip(masks, shifts):
            # MAGNET treats vacant positions as mismatches so that edge errors
            # are not hidden (one of its fixes over SHD): they stay ones.
            shifted_mismatch_planes(read, ref, shift, mask[1:-1], diff)
        # A run starts at a zero after a mismatch and ends at a zero before
        # one.  Marker row 2 * (mask * length + position) + (0 start, 1 end).
        zeros = ~masks[:, 1:-1]
        markers = np.empty((len(shifts), length, 2, n_blocks), dtype=np.uint64)
        np.bitwise_and(zeros, masks[:, :-2], out=markers[:, :, 0])
        np.bitwise_and(zeros, masks[:, 2:], out=markers[:, :, 1])
        # In pair order, each pair's runs come in the (mask, position) order
        # the tie-breaking relies on, and starts and ends alternate (a
        # one-base run's start row precedes its end row).  Each pair spans
        # n_rows, a multiple of 2 * length, so a shift and a modulo of the
        # flat index give every marker's position.
        n_rows = len(shifts) * length * 2
        flat = np.flatnonzero(unpack_planes(markers.reshape(n_rows, n_blocks), n_pairs))
        positions = (flat >> 1) % length
        run_pairs = flat[0::2] // n_rows
        run_starts, run_ends = self._pad_runs(
            run_pairs,
            positions[0::2],
            positions[1::2] + 1,
            n_pairs,
            length,
            counts=np.bincount(run_pairs, minlength=n_pairs),
        )
        return self._extract_batch(run_starts, run_ends, length)
