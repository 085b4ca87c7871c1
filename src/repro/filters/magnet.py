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

The batch path (:meth:`MagnetFilter.estimate_edits_words`) works on the
word-major packed arrays: the ``2e+1`` masks are built bit-parallel, the
zero-run boundaries are detected with packed shift/AND marker operations
(:func:`repro.filters.packed.zero_run_markers`) — only the tiny start/end
marker bitmaps are ever unpacked — and the segment extraction runs *for all
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
from .packed import (
    count_set_lanes,
    lane_span_mask,
    shifted_mismatch_lanes,
    unpack_group_values,
    word_major,
    zero_run_markers,
)

__all__ = ["MagnetFilter", "magnet_kernel"]


def magnet_kernel(
    read_words: np.ndarray,
    ref_words: np.ndarray,
    length: int,
    error_threshold: int,
) -> np.ndarray:
    """Pure-NumPy MAGNET estimates for a batch of packed pairs.

    The registered reference implementation of the ``magnet_kernel`` native
    pair: packed mask construction, marker-based zero-run detection and the
    whole-batch extraction state machine, returning int32 estimates
    bit-identical to the Numba twin's per-pair divide-and-conquer.
    """
    flt = MagnetFilter(error_threshold)
    read_words = word_major(read_words)
    ref_words = word_major(ref_words)
    n_words, n_pairs = read_words.shape
    valid = lane_span_mask(0, length, n_words)
    estimates = np.empty(n_pairs, dtype=np.int32)
    block_size = MagnetFilter._EXTRACT_BLOCK
    for start in range(0, n_pairs, block_size):
        block = slice(start, min(start + block_size, n_pairs))
        estimates[block] = flt._estimate_words_block(
            read_words[:, block], ref_words[:, block], length, valid
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

        The ``2e+1`` masks are shifted-XOR lane masks of the 2-bit words
        (vacant positions forced to 1, MAGNET's edge fix), every maximal zero
        run is located by the packed start/end marker kernel, and only those
        marker bitmaps are unpacked — straight into the whole-batch
        :meth:`_extract_batch` state machine (no per-pair Python loop).
        ``tier`` selects the kernel tier; both tiers return bit-identical
        estimates.
        """
        n_pairs = read_words.shape[0]
        if length == 0:
            return np.zeros(n_pairs, dtype=np.int32)
        kernel, _ = resolve("magnet_kernel", tier)
        return kernel(read_words, ref_words, length, self.error_threshold)

    def _estimate_words_block(
        self,
        read_words: np.ndarray,
        ref_words: np.ndarray,
        length: int,
        valid: np.ndarray,
    ) -> np.ndarray:
        n_words, n_pairs = read_words.shape
        e = self.error_threshold
        shifts = [0] + [s for k in range(1, e + 1) for s in (k, -k)]
        masks = np.empty((n_words, len(shifts), n_pairs), dtype=np.uint64)
        for row, shift in enumerate(shifts):
            # MAGNET treats vacant positions as mismatches (vacant_value=1) so
            # that edge errors are not hidden (one of its fixes over SHD).
            masks[:, row, :], _ = shifted_mismatch_lanes(
                read_words, ref_words, shift, length, vacant_value=1, valid=valid
            )
        start_marks, end_marks = zero_run_markers(masks, valid[:, np.newaxis])
        # Runs per pair straight from the packed start markers: one popcount
        # over the marker words replaces _pad_runs' bincount over the (much
        # longer) per-run row list.
        counts = count_set_lanes(start_marks).sum(axis=0, dtype=np.int32)
        # Start and end markers share one unpack + nonzero pass: the end
        # marker rides in the unused high bit of each base's 2-bit group, so
        # one unpacked value per position says start (1), end (2) or both (3
        # — a single-base run).  Unpacking the (n_words, n_pairs, n_masks)
        # transpose puts each pair's masks back to back, so row-major
        # flatnonzero yields each pair's runs in the (mask, position) order
        # the tie-breaking relies on, and because the per-pair span is a
        # multiple of ``length``, a single modulo recovers the in-mask
        # position.  All index arithmetic runs in int32 — the flat indices
        # are far below 2**31 and the narrower lanes halve the memory traffic
        # of the divides and compactions.
        start_marks |= end_marks << np.uint64(1)
        kinds = unpack_group_values(start_marks.transpose(0, 2, 1), length).reshape(-1)
        flat = np.flatnonzero(kinds).astype(np.int32)
        values = kinds[flat]
        is_start = (values & 1).astype(bool)
        is_end = values >= 2
        span = np.int32(kinds.shape[0] // n_pairs)
        positions = flat % np.int32(length)  # span is a multiple of length
        run_starts, run_ends = self._pad_runs(
            flat[is_start] // span,
            positions[is_start],
            positions[is_end] + np.int32(1),
            n_pairs,
            length,
            counts=counts,
        )
        return self._extract_batch(run_starts, run_ends, length)
