"""The one chunk runner: filter + verify candidate pairs chunk by chunk.

:class:`StreamingPipeline` is the loop every filtering workload runs through;
:class:`repro.api.Session` is its only constructor.  In memory mode the whole
input is one chunk; in streaming mode each chunk holds ``chunk_size`` pairs,
so peak memory is O(chunk) regardless of the input size.  Two entry points
feed the same loop:

* :meth:`StreamingPipeline.run_encoded` takes an already-encoded
  :class:`~repro.genomics.encoding.EncodedPairBatch` (a simulated dataset's
  cached batch) and hands the engine row-slice views of it — nothing is
  encoded again, however often the batch is run.
* :meth:`StreamingPipeline.run_pairs` takes any iterator of ``(read,
  segment)`` pairs — a FASTQ/FASTA read file seeded against a reference, a
  pairs TSV, in-memory pairs — and encodes each chunk exactly once,
  optionally in a prefetching producer thread.

Every chunk goes through ``engine.filter_encoded(batch, executor=...)``
(a :class:`~repro.engine.FilterEngine` or
:class:`~repro.engine.FilterCascade`), the surviving pairs are verified
immediately, and only counters survive the chunk.  H2D-transfer/kernel
overlap across the configured (simulated) devices is modelled with one
stream per device, so the report can distinguish *serial* execution (every
transfer and kernel back-to-back) from *overlapped* execution (devices run
concurrently, chunks pipeline).

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
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .._defaults import DEFAULT_CHUNK_SIZE, VERIFICATION_COST_PER_PAIR_S
from ..align.verification import Verifier
from ..core.config import EncodingActor
from ..exec.executor import wants_word_arrays
from ..exec.reduce import (
    modelled_verification_times,
    reduce_totals,
    stream_overlap_times,
)
from ..genomics.encoding import EncodedPairBatch
from ..gpusim.multi_gpu import MultiGpuDispatcher, split_evenly
from ..gpusim.timing import FilterTiming

__all__ = ["ChunkReport", "StreamingReport", "StreamingPipeline"]

#: Encoded chunks a prefetching producer may queue ahead of the consumer.
PREFETCH_DEPTH = 2

#: One chunk as the loop consumes it: the strings the verifier needs and the
#: encoded batch the engine filters.
Chunk = tuple[Sequence[str], Sequence[str], EncodedPairBatch]


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
    verification_wall_clock_s: float
    no_filter_verification_time_s: float
    timing: FilterTiming
    wall_clock_s: float
    serial_time_s: float
    overlapped_time_s: float
    #: Stage index -> pairs that stage examined, summed over chunks.
    stage_inputs: dict[int, int] = field(default_factory=dict)
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
        For :meth:`run_pairs`: a producer thread parses and encodes chunk
        ``N + 1`` while chunk ``N`` filters (the host-side analogue of the
        modelled H2D/kernel overlap — but measured).  Results are
        unaffected; only wall-clock changes.
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
        pairs: Iterable[tuple[str, str]],
        name: str = "stream",
        verify: bool = True,
    ) -> StreamingReport:
        """Stream ``(read, segment)`` pairs through filter + verification.

        The entry point for iterator inputs: each chunk is encoded exactly
        once — in a producer thread when ``prefetch`` is on.
        """
        return self._run(self._iter_prepared(pairs), name, verify)

    def run_encoded(
        self,
        batch: EncodedPairBatch,
        reads: Sequence[str],
        segments: Sequence[str],
        name: str = "stream",
        verify: bool = True,
    ) -> StreamingReport:
        """Run an already-encoded batch; chunks are row-slice views of it.

        ``reads`` / ``segments`` are the batch's strings, which verification
        of the surviving pairs needs.  Nothing is encoded: when the engine
        consumes packed words they are materialised once on ``batch`` itself,
        so every chunk view — and every later run over the same cached
        batch — inherits them.
        """
        n, step = batch.n_pairs, self.chunk_size
        if n and wants_word_arrays(self._engine_for(batch.length)):
            batch.read_words
            batch.ref_words
        chunks = (
            (reads[lo : lo + step], segments[lo : lo + step], batch[lo : lo + step])
            for lo in range(0, n, step)
        )
        return self._run(chunks, name, verify)

    # ------------------------------------------------------------------ #
    # Chunk preparation (iterator inputs)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _iter_chunks(
        pairs: Iterable[tuple[str, str]], chunk_size: int
    ) -> Iterator[tuple[list[str], list[str]]]:
        reads: list[str] = []
        segments: list[str] = []
        for read, segment in pairs:
            reads.append(read)
            segments.append(segment)
            if len(reads) >= chunk_size:
                yield reads, segments
                reads, segments = [], []
        if reads:
            yield reads, segments

    def _encode_chunk(self, reads: list[str], segments: list[str]) -> Chunk:
        """Encode one chunk ahead of filtration (the producer-side work).

        Once the engine is known to consume the packed word form, the words
        are packed here too, so the *whole* input-side cost sits in the
        producer thread under ``prefetch=True``.
        """
        batch = EncodedPairBatch.from_lists(reads, segments)
        if self.engine is not None and wants_word_arrays(self.engine):
            batch.read_words
            batch.ref_words
        return reads, segments, batch

    def _iter_prepared(self, pairs: Iterable[tuple[str, str]]) -> Iterator[Chunk]:
        """Yield encoded chunks, prefetching if enabled.

        Without prefetch, chunks are encoded inline.  With prefetch, a
        producer thread reads the pair iterator and encodes chunk ``N + 1``
        while the caller filters chunk ``N``; the queue is bounded by
        :data:`PREFETCH_DEPTH` so memory stays O(chunk).
        """
        if not self.prefetch:
            for reads, segments in self._iter_chunks(pairs, self.chunk_size):
                yield self._encode_chunk(reads, segments)
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
                for reads, segments in self._iter_chunks(pairs, self.chunk_size):
                    if not _put(self._encode_chunk(reads, segments)):
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
    def _share_timings(engine: Any, result: Any, n: int) -> list[FilterTiming]:
        """Per-device stream-model timings of one ``n``-pair chunk."""
        if not hasattr(engine, "stages"):
            # One engine: the analytic timing of each device's even share.
            return MultiGpuDispatcher(
                engine.config.devices, engine.timing_model
            ).share_timings(
                n,
                engine.read_length,
                engine.error_threshold,
                encode_on_device=engine.encoding is EncodingActor.DEVICE,
            )
        # Cascade: a proportional split of the chunk's composite (all-stage)
        # timing across the device shares.
        timings = []
        for share in split_evenly(n, engine.n_devices):
            fraction = (share.stop - share.start) / n
            timings.append(
                FilterTiming(
                    encode_s=result.timing.encode_s * fraction,
                    host_prep_s=result.timing.host_prep_s * fraction,
                    transfer_s=result.timing.transfer_s * fraction,
                    kernel_s=result.timing.kernel_s * fraction,
                )
            )
        return timings

    def _run(self, chunks: Iterable[Chunk], name: str, verify: bool) -> StreamingReport:
        wall_start = time.perf_counter()
        engine: Any = None
        verifier: Any = None
        read_length = 0
        n_chunks = n_pairs = n_accepted = n_undefined = n_batches = 0
        verified_accepts = verified_rejects = 0
        verification_wall = 0.0
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

        for chunk_index, (reads, segments, batch) in enumerate(chunks):
            chunk_start = time.perf_counter()
            n = batch.n_pairs
            if engine is None:
                read_length = batch.length
                engine = self._engine_for(read_length)
                verifier = Verifier(engine.error_threshold)
                device_transfer = [0.0] * engine.n_devices
                device_kernel = [0.0] * engine.n_devices
            result = engine.filter_encoded(batch, executor=self.executor)
            accounts = getattr(result, "stage_accounts", None)
            if accounts is None:
                stage_inputs[0] = stage_inputs.get(0, 0) + n
            else:
                for account in accounts:
                    stage_inputs[account.stage] = (
                        stage_inputs.get(account.stage, 0) + account.n_input
                    )

            if verify:
                verify_start = time.perf_counter()
                for index in np.flatnonzero(result.accepted):
                    if verifier.verify(reads[int(index)], segments[int(index)]).accepted:
                        verified_accepts += 1
                    else:
                        verified_rejects += 1
                verification_wall += time.perf_counter() - verify_start

            # Stream model: accumulate each device's H2D+kernel work for this
            # chunk; host-side encode/prep time is tracked separately (it is
            # not stream work).  The per-chunk modelled times use the
            # multi-GPU combination rules (kernels overlap across devices,
            # host phases amortise), so chunk rows stay consistent with the
            # totals.
            # These are per-*device* modelled times for the configured device
            # split — a semantic quantity fixed by n_devices, not an executor
            # partition artifact — so accumulating them is partition-invariant.
            share_timings = self._share_timings(engine, result, n)
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
        _, run_timing, _ = reduce_totals(engine, n_pairs, stage_inputs, n_accepted)

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
            verification_wall_clock_s=verification_wall,
            no_filter_verification_time_s=no_filter_time,
            timing=run_timing,
            wall_clock_s=time.perf_counter() - wall_start,
            serial_time_s=serial_time,
            overlapped_time_s=overlapped_time,
            stage_inputs=stage_inputs,
            chunks=chunk_reports,
            chunk_device_timings=chunk_timings if self.collect_chunk_timings else None,
            accepted=_concat(accepted_parts, bool),
            estimated_edits=_concat(estimate_parts, np.int32),
            undefined=_concat(undefined_parts, bool),
        )
