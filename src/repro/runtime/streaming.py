"""The one chunk runner: filter + verify candidate pairs chunk by chunk.

:class:`StreamingPipeline` is the loop every filtering workload runs through;
:class:`repro.api.Session` is its only constructor.  In memory mode the whole
input is one chunk; in streaming mode each chunk holds ``chunk_size`` pairs,
so peak memory is O(chunk) regardless of the input size.  The loop takes
only encoded batches: :func:`cut_blocks` re-cuts an iterable of
:class:`~repro.genomics.encoding.EncodedPairBatch` blocks into chunks (a
chunk inside one block is a row view of it; a chunk that spans blocks
concatenates their codes).  Two entry points feed it:

* :meth:`StreamingPipeline.run_encoded` takes one already-encoded batch (a
  simulated dataset's cached batch) and hands the engine row-slice views of
  it — nothing is encoded or packed again, however often the batch is run.
* :meth:`StreamingPipeline.run_pairs` takes any iterable of encoded blocks —
  a read file seeded against a reference, a pairs TSV or in-memory pairs
  encoded at parse (:mod:`repro.runtime.sources`) — and cuts and packs each
  chunk, optionally in a prefetching producer thread.

Every chunk goes through ``engine.filter_encoded(batch, executor=...)``
(a :class:`~repro.engine.FilterEngine`, which is a one-stage cascade, or a
:class:`~repro.engine.FilterCascade`), the surviving pairs are verified
immediately in one :meth:`~repro.align.Verifier.verify_batch` pass over the
chunk's codes, and only counters survive the chunk.  H2D-transfer/kernel
overlap across the configured (simulated) devices is modelled with one
stream per device, so the report can distinguish *serial* execution (every
transfer and kernel back-to-back) from *overlapped* execution (devices run
concurrently, chunks pipeline).  A device's work for a chunk is the sum, in
stage order, of the analytic timings of its even share of the pairs each
stage examined, so a single filter and a cascade follow one multi-device
model.

Equivalence contract
--------------------
Each pair's decision depends only on that pair, and the modelled times are
evaluated once on the final totals (:mod:`repro.exec.reduce`), so the totals
are byte-identical for every chunk size — the single chunk of memory mode
included.  ``tests/test_runtime_streaming.py`` locks this down for every
registered filter and several chunk sizes, and
``tests/test_streaming_golden.py`` pins the totals on a checked-in fixture.

The same per-pair determinism is what makes the adaptive planner's probe
(:mod:`repro.planner`) mode-independent: the planner samples the *prefix* of
the pair iterator — the pairs the first chunk(s) hold, in input order — so a
``filter = "auto"`` workload resolves to the same plan whether it later runs
streamed or in memory, at any chunk size.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from .._defaults import DEFAULT_CHUNK_SIZE, VERIFICATION_COST_PER_PAIR_S
from ..align.verification import Verifier
from ..core.config import EncodingActor
from ..core.results import CascadeStageAccount
from ..exec.executor import wants_word_arrays
from ..exec.reduce import (
    modelled_verification_times,
    reduce_totals,
    stream_overlap_times,
)
from ..genomics.encoding import EncodedPairBatch
from ..gpusim.multi_gpu import MultiGpuDispatcher
from ..gpusim.timing import FilterTiming

__all__ = ["ChunkReport", "StreamingReport", "StreamingPipeline", "cut_blocks"]

#: Encoded chunks a prefetching producer may queue ahead of the consumer.
PREFETCH_DEPTH = 2


def cut_blocks(
    blocks: Iterable[EncodedPairBatch],
    size: int,
    start: int = 0,
    stop: int | None = None,
) -> Iterator[EncodedPairBatch]:
    """Re-cut the rows ``[start, stop)`` of ``blocks`` into batches of ``size`` pairs.

    The blocks' rows are taken as one stream, in order; every batch but the
    last holds ``size`` rows.  A batch inside one block is a row view of it,
    and one that spans blocks concatenates their codes.  No block is pulled
    once ``stop`` rows are reached, so an error a later block would raise
    never surfaces.
    """
    if size < 1:
        raise ValueError("size must be at least 1")
    want = None if stop is None else stop - start
    if want is not None and want <= 0:
        return
    skip = start
    taken = filled = 0
    parts: list[EncodedPairBatch] = []
    for block in blocks:
        lo = min(skip, block.n_pairs)
        skip -= lo
        end = block.n_pairs if want is None else min(block.n_pairs, lo + want - taken)
        while lo < end:
            hi = min(end, lo + size - filled)
            parts.append(block[lo:hi])
            filled += hi - lo
            taken += hi - lo
            lo = hi
            if filled == size:
                yield EncodedPairBatch.concatenate(parts)
                parts, filled = [], 0
        if taken == want:
            break
    if parts:
        yield EncodedPairBatch.concatenate(parts)


@dataclass(frozen=True)
class ChunkReport:
    """Per-chunk accounting (everything that survives a chunk besides counters)."""

    chunk_index: int
    n_pairs: int
    n_accepted: int
    n_rejected: int
    n_undefined: int
    n_batches: int
    wall_clock_s: float
    modelled_kernel_s: float
    modelled_filter_s: float

    def summary(self) -> dict:
        return {
            "chunk": self.chunk_index,
            "n_pairs": self.n_pairs,
            "n_accepted": self.n_accepted,
            "n_rejected": self.n_rejected,
            "n_undefined": self.n_undefined,
            "n_batches": self.n_batches,
            "modelled_kernel_s": self.modelled_kernel_s,
            "modelled_filter_s": self.modelled_filter_s,
        }


@dataclass
class StreamingReport:
    """What one run produced: totals, per-chunk rows, optional decisions.

    Only run outputs live here; the configuration the run used (filter,
    threshold, devices, mode) is the workload's, and
    :class:`repro.api.Result` combines the two.
    """

    dataset_name: str
    read_length: int
    n_pairs: int
    n_accepted: int
    n_undefined: int
    n_batches: int
    n_chunks: int
    verified_accepts: int
    verified_rejects: int
    verification_time_s: float
    no_filter_verification_time_s: float
    timing: FilterTiming
    wall_clock_s: float
    serial_time_s: float
    overlapped_time_s: float
    #: One account per stage the run reached, from the stage totals.
    stage_accounts: list[CascadeStageAccount] = field(default_factory=list)
    chunks: list[ChunkReport] = field(default_factory=list)
    #: Per chunk, per device ``[transfer_s, kernel_s, host_s]`` (when collected).
    chunk_device_timings: list[list[list[float]]] | None = None
    accepted: np.ndarray | None = None
    estimated_edits: np.ndarray | None = None
    undefined: np.ndarray | None = None


class StreamingPipeline:
    """Filter + verify a pair stream chunk by chunk, in bounded memory.

    Parameters
    ----------
    engine:
        Resolves the :class:`~repro.engine.FilterEngine` or
        :class:`~repro.engine.FilterCascade` for a read length (a
        :class:`repro.api.Session` passes its cached ``engine_for``).  Called
        once, when the first chunk fixes the read length; after a run
        :attr:`engine` holds the result, or ``None`` if the input was empty.
    chunk_size:
        Pairs per chunk; peak memory is proportional to this.
    verification_cost_per_pair_s:
        Calibrated per-pair DP cost behind the modelled verification times.
    collect_decisions:
        Keep the concatenated accept/estimate/undefined vectors on the report
        (1 byte + 4 bytes + 1 byte per pair).  The totals are unaffected.
    max_chunk_reports:
        Keep at most this many leading :class:`ChunkReport` rows.
        ``StreamingReport.n_chunks`` always counts every chunk, so a
        truncated report is detectable.
    collect_chunk_timings:
        Record every chunk's per-device ``[transfer_s, kernel_s, host_s]``
        stream-model triples on ``report.chunk_device_timings``.  Sharded
        runs (:mod:`repro.cluster`) enable this so ``repro merge`` can replay
        the stream-overlap accumulation in the exact single-run order.
    executor:
        The :class:`~repro.exec.Executor` every chunk's filtration fans out
        across (threads or processes with shared-memory transport); ``None``
        runs each chunk as one share on a serial executor.  Decisions,
        modelled times and batch counts are byte-identical for every
        backend/worker count.
    prefetch:
        For :meth:`run_pairs`: a producer thread parses, seeds, encodes and
        packs chunk ``N + 1`` while chunk ``N`` filters (the host-side
        analogue of the modelled H2D/kernel overlap — but measured).
        Results are unaffected; only wall-clock changes.
    """

    def __init__(
        self,
        engine: Callable[[int], Any],
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        verification_cost_per_pair_s: float = VERIFICATION_COST_PER_PAIR_S,
        collect_decisions: bool = True,
        max_chunk_reports: int = 0,
        collect_chunk_timings: bool = False,
        executor: Any = None,
        prefetch: bool = False,
    ):
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        if max_chunk_reports < 0:
            raise ValueError("max_chunk_reports must be non-negative")
        self._resolve_engine = engine
        self.engine: Any = None
        self.chunk_size = int(chunk_size)
        self.verification_cost_per_pair_s = verification_cost_per_pair_s
        self.collect_decisions = bool(collect_decisions)
        self.max_chunk_reports = max_chunk_reports
        self.collect_chunk_timings = bool(collect_chunk_timings)
        self.executor = executor
        self.prefetch = bool(prefetch)

    def _engine_for(self, read_length: int) -> Any:
        if self.engine is None:
            self.engine = self._resolve_engine(read_length)
        return self.engine

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def run_pairs(
        self,
        blocks: Iterable[EncodedPairBatch],
        name: str = "stream",
        verify: bool = True,
    ) -> StreamingReport:
        """Stream encoded pair blocks through filter + verification.

        The entry point for iterator inputs: the blocks are cut into
        chunks, and each chunk's words are packed once the engine is known to
        use them — in a producer thread when ``prefetch`` is on, which then
        also runs the blocks' parsing, seeding and encoding.
        """
        return self._run(self._iter_prepared(blocks), name, verify)

    def run_encoded(
        self, batch: EncodedPairBatch, name: str = "stream", verify: bool = True
    ) -> StreamingReport:
        """Run an already-encoded batch; chunks are row-slice views of it.

        Nothing is encoded: when the engine consumes packed words they are
        materialised once on ``batch`` itself, so every chunk view — and
        every later run over the same cached batch — inherits them.
        """
        if batch.n_pairs and wants_word_arrays(self._engine_for(batch.length)):
            batch.read_words
            batch.ref_words
        return self._run(cut_blocks([batch], self.chunk_size), name, verify)

    # ------------------------------------------------------------------ #
    # Chunk preparation (iterator inputs)
    # ------------------------------------------------------------------ #
    def _cut_and_pack(self, blocks: Iterable[EncodedPairBatch]) -> Iterator[EncodedPairBatch]:
        """Chunks of ``blocks``, their words packed once the engine wants them.

        So under ``prefetch=True`` the *whole* input-side cost sits in the
        producer thread.
        """
        for chunk in cut_blocks(blocks, self.chunk_size):
            if self.engine is not None and wants_word_arrays(self.engine):
                chunk.read_words
                chunk.ref_words
            yield chunk

    def _iter_prepared(self, blocks: Iterable[EncodedPairBatch]) -> Iterator[EncodedPairBatch]:
        """Yield prepared chunks, prefetching if enabled.

        Without prefetch, chunks are prepared inline.  With prefetch, a
        producer thread pulls the blocks and prepares chunk ``N + 1`` while
        the caller filters chunk ``N``; the queue is bounded by
        :data:`PREFETCH_DEPTH` so memory stays O(chunk).
        """
        if not self.prefetch:
            yield from self._cut_and_pack(blocks)
            return

        work: "queue.Queue[Any]" = queue.Queue(maxsize=PREFETCH_DEPTH)
        stop = threading.Event()
        done = object()

        def _put(item: Any) -> bool:
            while not stop.is_set():
                try:
                    work.put(item, timeout=0.05)
                    return True
                except queue.Full:
                    continue
            return False

        def _produce() -> None:
            try:
                for chunk in self._cut_and_pack(blocks):
                    if not _put(chunk):
                        return
                _put(done)
            except BaseException as exc:  # propagate parse errors to the consumer
                _put(exc)

        producer = threading.Thread(
            target=_produce, name="repro-prefetch", daemon=True
        )
        producer.start()
        try:
            while True:
                item = work.get()
                if item is done:
                    return
                if isinstance(item, BaseException):
                    raise item
                yield item
        finally:
            stop.set()
            while not work.empty():  # unblock a producer stuck on a full queue
                try:
                    work.get_nowait()
                except queue.Empty:  # pragma: no cover - race window
                    break
            producer.join(timeout=5.0)

    # ------------------------------------------------------------------ #
    # The loop
    # ------------------------------------------------------------------ #
    @staticmethod
    def _share_timings(engine: Any, result: Any) -> list[FilterTiming]:
        """Per-device stream-model timings of one chunk.

        Each stage the chunk reached splits the pairs it examined evenly
        across the devices; a device's timing is the sum of its stage shares'
        analytic timings, added in stage order from 0.0.
        """
        totals = [[0.0] * 4 for _ in range(engine.n_devices)]
        for stage, account in zip(engine.stages, result.stage_accounts):
            shares = MultiGpuDispatcher(
                stage.config.devices, stage.timing_model
            ).share_timings(
                account.n_input,
                stage.read_length,
                stage.error_threshold,
                encode_on_device=stage.encoding is EncodingActor.DEVICE,
            )
            for device, timing in zip(totals, shares):
                device[0] += timing.encode_s
                device[1] += timing.host_prep_s
                device[2] += timing.transfer_s
                device[3] += timing.kernel_s
        return [
            FilterTiming(encode_s=encode, host_prep_s=prep, transfer_s=transfer, kernel_s=kernel)
            for encode, prep, transfer, kernel in totals
        ]

    def _run(
        self, chunks: Iterable[EncodedPairBatch], name: str, verify: bool
    ) -> StreamingReport:
        wall_start = time.perf_counter()
        engine: Any = None
        verifier: Any = None
        read_length = 0
        n_chunks = n_pairs = n_accepted = n_undefined = n_batches = 0
        verified_accepts = verified_rejects = 0
        stage_inputs: dict[int, int] = {}
        chunk_reports: list[ChunkReport] = []
        accepted_parts: list[np.ndarray] = []
        estimate_parts: list[np.ndarray] = []
        undefined_parts: list[np.ndarray] = []
        # Per-device running totals for the stream model; materialised as one
        # aggregated operation per kind per stream at the end, so the model
        # state stays O(devices) no matter how many chunks went through.
        device_transfer: list[float] = []
        device_kernel: list[float] = []
        host_time = 0.0
        chunk_timings: list[list[list[float]]] = []

        for chunk_index, batch in enumerate(chunks):
            chunk_start = time.perf_counter()
            n = batch.n_pairs
            if engine is None:
                read_length = batch.length
                engine = self._engine_for(read_length)
                verifier = Verifier(engine.error_threshold)
                device_transfer = [0.0] * engine.n_devices
                device_kernel = [0.0] * engine.n_devices
            result = engine.filter_encoded(batch, executor=self.executor)
            for account in result.stage_accounts:
                stage_inputs[account.stage] = (
                    stage_inputs.get(account.stage, 0) + account.n_input
                )

            if verify and result.n_accepted:
                distances = verifier.verify_batch(batch, np.flatnonzero(result.accepted))
                chunk_verified = int(np.count_nonzero(distances <= verifier.error_threshold))
                verified_accepts += chunk_verified
                verified_rejects += len(distances) - chunk_verified

            # Stream model: accumulate each device's H2D+kernel work for this
            # chunk; host-side encode/prep time is tracked separately (it is
            # not stream work).  The per-chunk modelled times use the
            # multi-GPU combination rules (kernels overlap across devices,
            # host phases amortise), so chunk rows stay consistent with the
            # totals.
            # These are per-*device* modelled times for the configured device
            # split — a semantic quantity fixed by n_devices, not an executor
            # partition artifact — so accumulating them is partition-invariant.
            share_timings = self._share_timings(engine, result)
            for device_index, timing in enumerate(share_timings):
                device_transfer[device_index] += timing.transfer_s  # reprolint: disable=partition-invariant-reduction
                device_kernel[device_index] += timing.kernel_s
                host_time += timing.encode_s + timing.host_prep_s  # reprolint: disable=partition-invariant-reduction
            if self.collect_chunk_timings:
                # The same per-device semantic quantities as the accumulation
                # above, serialised per chunk so a shard merge can replay the
                # accumulation in single-run order (same waiver rationale).
                chunk_timings.append(
                    [
                        [timing.transfer_s, timing.kernel_s, timing.encode_s + timing.host_prep_s]  # reprolint: disable=partition-invariant-reduction
                        for timing in share_timings
                    ]
                )

            chunk_accepted = result.n_accepted
            chunk_undefined = result.n_undefined
            n_pairs += n
            n_accepted += chunk_accepted
            n_undefined += chunk_undefined
            n_batches += result.n_batches
            n_chunks = chunk_index + 1
            if len(chunk_reports) < self.max_chunk_reports:
                chunk_reports.append(
                    ChunkReport(
                        chunk_index=chunk_index,
                        n_pairs=n,
                        n_accepted=chunk_accepted,
                        n_rejected=n - chunk_accepted,
                        n_undefined=chunk_undefined,
                        n_batches=result.n_batches,
                        wall_clock_s=time.perf_counter() - chunk_start,
                        modelled_kernel_s=MultiGpuDispatcher.combined_kernel_time_from_timings(
                            share_timings
                        ),
                        modelled_filter_s=MultiGpuDispatcher.combined_filter_time_from_timings(
                            share_timings
                        ),
                    )
                )
            if self.collect_decisions:
                accepted_parts.append(result.accepted)
                estimate_parts.append(result.estimated_edits)
                undefined_parts.append(result.undefined)

        # Model-scale verification times on the final totals (count x
        # per-pair cost, then the quadratic read-length factor).
        verification_time, no_filter_time = modelled_verification_times(
            n_accepted, n_pairs, read_length, self.verification_cost_per_pair_s
        )
        # Materialise the stream model: one stream per device with its
        # accumulated H2D and kernel work.  Concurrent streams overlap, so
        # the pool completes at the busiest device (makespan); serial
        # execution pays every operation back-to-back (serialized time).
        serial_time, overlapped_time = stream_overlap_times(
            device_transfer, device_kernel, host_time, len(device_transfer)
        )
        run_accounts, run_timing, _ = reduce_totals(
            engine, n_pairs, stage_inputs, n_accepted
        )

        def _concat(parts: list[np.ndarray], dtype: Any) -> np.ndarray | None:
            if not self.collect_decisions:
                return None
            return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)

        return StreamingReport(
            dataset_name=name,
            read_length=read_length,
            n_pairs=n_pairs,
            n_accepted=n_accepted,
            n_undefined=n_undefined,
            n_batches=n_batches,
            n_chunks=n_chunks,
            verified_accepts=verified_accepts,
            verified_rejects=verified_rejects,
            verification_time_s=verification_time,
            no_filter_verification_time_s=no_filter_time,
            timing=run_timing,
            wall_clock_s=time.perf_counter() - wall_start,
            serial_time_s=serial_time,
            overlapped_time_s=overlapped_time,
            stage_accounts=run_accounts,
            chunks=chunk_reports,
            chunk_device_timings=chunk_timings if self.collect_chunk_timings else None,
            accepted=_concat(accepted_parts, bool),
            estimated_edits=_concat(estimate_parts, np.int32),
            undefined=_concat(undefined_parts, bool),
        )
