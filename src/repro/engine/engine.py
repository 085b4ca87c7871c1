"""The unified filtering engine: any registered filter, one vectorized pipeline.

:class:`FilterEngine` generalises what used to be hardwired into
``GateKeeperGPU.filter_lists``: splitting the work list across the configured
(simulated) devices, batching each share by the launch configuration,
encoding pairs into 2-bit code/word arrays, flagging ``N``-containing pairs
undefined, running the filter's vectorised batch kernel, and reporting the
analytic timing model's decomposition.  Any filter resolvable by the
:mod:`repro.engine.registry` — or any :class:`PreAlignmentFilter` instance —
can be dropped in; :class:`repro.core.GateKeeperGPU` is now a thin configured
façade over this class.

Filters of the GateKeeper family (``word_kernel_compatible``) run through the
packed word-array kernel of :mod:`repro.core.kernel`, which mirrors the CUDA
implementation's arithmetic and keeps the host/device encoding-actor
distinction meaningful; all other filters run their own
``estimate_edits_batch`` over the per-base code arrays.
"""

from __future__ import annotations

import time
from typing import Any, Sequence, Type

import numpy as np
from numpy.typing import NDArray

from ..core.config import EncodingActor, SystemConfiguration
from ..core.buffers import FiltrationBuffers
from ..core.kernel import run_gatekeeper_kernel
from ..core.preprocess import prepare_batches_encoded
from ..core.results import FilterRunResult
from ..filters.base import PreAlignmentFilter
from ..filters.native import DEFAULT_KERNEL_TIER, active_tier, validate_tier
from ..genomics.encoding import EncodedPairBatch
from ..gpusim.device import DeviceSpec, GTX_1080_TI, SystemSetup
from ..gpusim.multi_gpu import split_evenly
from ..gpusim.timing import TimingModel
from .registry import resolve_filter

__all__ = ["FilterEngine"]


class FilterEngine:
    """Batched, device-split, timing-modelled execution of any filter.

    Parameters
    ----------
    filter_spec:
        A registry name (``"shouji"``), a :class:`PreAlignmentFilter` subclass,
        or an instance.  Instances must agree with ``error_threshold``.
    read_length:
        Length of the reads / candidate segments (a compile-time constant of
        the CUDA implementation).
    error_threshold:
        Maximum number of edits for a pair to be accepted.
    devices / setup / n_devices:
        Device list or one of the paper's setups; identical devices are
        assumed (as in the paper's experiments).
    encoding:
        :class:`EncodingActor` — whether the host or the device encodes.
    max_reads_per_batch:
        Cap on pairs per kernel call (Table 1 parameter).
    kernel_tier:
        Which kernel implementation runs (:mod:`repro.filters.native`):
        ``"auto"`` (default), ``"numpy"`` or ``"native"``.  Decisions are
        bit-identical across tiers; the tier that actually ran is recorded
        in the result metadata.
    filter_kwargs:
        Extra constructor arguments for name/class specs (e.g. ``window=4``
        for Shouji).
    """

    def __init__(
        self,
        filter_spec: "str | PreAlignmentFilter | Type[PreAlignmentFilter]",
        read_length: int,
        error_threshold: int,
        devices: Sequence[DeviceSpec] | None = None,
        setup: SystemSetup | None = None,
        n_devices: int = 1,
        encoding: EncodingActor = EncodingActor.DEVICE,
        max_reads_per_batch: int = 100_000,
        kernel_tier: str = DEFAULT_KERNEL_TIER,
        **filter_kwargs: Any,
    ) -> None:
        if setup is not None and devices is not None:
            raise ValueError("pass either devices or setup, not both")
        if setup is not None:
            device_list = setup.devices(n_devices)
            host = setup.host
        else:
            device_list = list(devices) if devices else [GTX_1080_TI] * n_devices
            host = None
        self.filter = resolve_filter(filter_spec, error_threshold, **filter_kwargs)
        self.kernel_tier = validate_tier(kernel_tier)
        self.config = SystemConfiguration(
            read_length=read_length,
            error_threshold=int(error_threshold),
            devices=device_list,
            encoding=encoding,
            max_reads_per_batch=max_reads_per_batch,
        )
        if host is not None:
            self.timing_model = TimingModel(self.config.primary_device, host)
        else:
            self.timing_model = TimingModel(self.config.primary_device)

    # ------------------------------------------------------------------ #
    # Introspection helpers
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        return self.filter.name

    @property
    def error_threshold(self) -> int:
        return self.config.error_threshold

    @property
    def read_length(self) -> int:
        return self.config.read_length

    @property
    def n_devices(self) -> int:
        return self.config.n_devices

    @property
    def encoding(self) -> EncodingActor:
        return self.config.encoding

    @property
    def uses_word_kernel(self) -> bool:
        """True when the filter runs through the packed word-array kernel."""
        return bool(getattr(self.filter, "word_kernel_compatible", False))

    @property
    def active_kernel_tier(self) -> str:
        """The tier that actually runs (``"native"`` or ``"numpy"``).

        ``"native"`` requires both the configured ``kernel_tier`` to allow it
        and Numba to be importable; otherwise the NumPy reference tier runs.
        """
        return active_tier(self.kernel_tier)

    @property
    def _needs_word_arrays(self) -> bool:
        """True when filtering will consume the packed word representation."""
        return self.uses_word_kernel or callable(
            getattr(self.filter, "estimate_edits_words", None)
        )

    def allocate_buffers(self, batch_pairs: int) -> list[FiltrationBuffers]:
        """Allocate per-device unified-memory buffers for a batch (bookkeeping)."""
        buffers: list[FiltrationBuffers] = []
        for device in self.config.devices:
            buf = FiltrationBuffers(device, self.config, batch_pairs)
            buf.apply_memory_advice()
            buf.prefetch_inputs()
            buffers.append(buf)
        return buffers

    # ------------------------------------------------------------------ #
    # Filtering
    # ------------------------------------------------------------------ #
    def _run_batch(
        self, batch: Any
    ) -> "tuple[NDArray[np.int32], NDArray[np.bool_], NDArray[np.bool_]]":
        """(estimates, accepted, undefined) of one :class:`PreparedBatch`."""
        e = self.config.error_threshold
        if self.uses_word_kernel:
            # The word arrays are packed lazily by the parent EncodedPairBatch
            # (at most once per pair, host- or device-billed per the timing
            # model); the kernel itself is fully bit-parallel.
            output = run_gatekeeper_kernel(
                batch.read_words,
                batch.ref_words,
                length=self.config.read_length,
                error_threshold=e,
                edge_policy=self.filter.edge_policy,
                count_window=getattr(self.filter, "count_window", 4),
                max_zero_run=getattr(self.filter, "max_zero_run", 2),
                undefined=batch.undefined,
                tier=self.kernel_tier,
            )
            return output.estimated_edits, output.accepted, output.undefined
        undefined = np.asarray(batch.undefined, dtype=bool)
        packed_kernel = getattr(self.filter, "estimate_edits_words", None)
        if callable(packed_kernel):
            kwargs: "dict[str, Any]" = {}
            if getattr(self.filter, "native_kernel", None):
                # Filters with a registered kernel pair accept the tier knob.
                kwargs["tier"] = self.kernel_tier
            estimates = np.asarray(
                packed_kernel(
                    batch.read_words, batch.ref_words, self.config.read_length, **kwargs
                ),
                dtype=np.int32,
            )
        else:
            estimates = np.asarray(
                self.filter.estimate_edits_batch(batch.read_codes, batch.ref_codes),
                dtype=np.int32,
            )
        # Undefined pairs bypass filtration with a direct pass (paper design).
        estimates = np.where(undefined, 0, estimates).astype(np.int32)
        accepted = undefined | (estimates <= e)
        return estimates, accepted, undefined

    def _check_length(self, pairs: EncodedPairBatch) -> None:
        if pairs.n_pairs and pairs.length != self.config.read_length:
            # The read length is a compile-time constant of the simulated
            # kernel; silently filtering at the wrong length would truncate
            # or pad every comparison.
            raise ValueError(
                f"engine is configured for read_length={self.config.read_length} "
                f"but received {pairs.length} bp sequences"
            )

    def filter_encoded_share(
        self, pairs: EncodedPairBatch
    ) -> "tuple[NDArray[np.int32], NDArray[np.bool_], NDArray[np.bool_], int]":
        """Run the batched kernel path over one device's share of the work.

        This is the single-device core of :meth:`filter_encoded`: no device
        splitting and no timing model, just batching and the kernel on an
        already-encoded :class:`~repro.genomics.encoding.EncodedPairBatch`.
        Returns ``(estimated_edits, accepted, undefined, n_batches)``; an
        empty share yields empty arrays.  Executor workers
        (:mod:`repro.exec.tasks`) run their shares through this too.
        """
        self._check_length(pairs)
        n = pairs.n_pairs
        accepted = np.zeros(n, dtype=bool)
        estimates = np.zeros(n, dtype=np.int32)
        undefined = np.zeros(n, dtype=bool)
        n_batches = 0
        for batch in prepare_batches_encoded(pairs, self.config):
            batch_estimates, batch_accepted, batch_undefined = self._run_batch(batch)
            hi = batch.start + batch.n_pairs
            accepted[batch.start : hi] = batch_accepted
            estimates[batch.start : hi] = batch_estimates
            undefined[batch.start : hi] = batch_undefined
            n_batches += 1
        return estimates, accepted, undefined, n_batches

    def filter_encoded(
        self, pairs: EncodedPairBatch, executor: Any = None
    ) -> FilterRunResult:
        """Filter an already-encoded pair batch (the encode-once hot path).

        Device shares are zero-copy row-slice views of ``pairs`` — nothing is
        re-encoded, re-packed or rebuilt as strings anywhere below this call.
        With an :class:`~repro.exec.Executor` the shares fan out across its
        workers (threads or processes, shared-memory transport); decisions,
        modelled times and ``n_batches`` are byte-identical to the serial
        sweep for every backend and worker count.
        """
        n = pairs.n_pairs
        if n == 0:
            raise ValueError("cannot filter an empty work list")
        self._check_length(pairs)
        if self._needs_word_arrays:
            # Materialise the packed words on the caller's batch so device
            # shares, later cascade stages and repeated runs over a cached
            # dataset batch all inherit the cached rows — each pair is packed
            # exactly once, no matter how often its row is viewed.
            pairs.read_words
            pairs.ref_words

        wall_start = time.perf_counter()
        if executor is not None:
            from ..exec.fanout import expected_n_batches, fan_out_engine

            estimates, accepted, undefined = fan_out_engine(self, pairs, executor)
            # The kernel-call count is partition-dependent; report the count
            # the serial device-split execution performs (a pure function of
            # the totals), keeping results identical across worker counts.
            n_batches = expected_n_batches(self.config, n)
        else:
            accepted = np.zeros(n, dtype=bool)
            estimates = np.zeros(n, dtype=np.int32)
            undefined = np.zeros(n, dtype=bool)
            n_batches = 0
            # Device shares: pairs are split evenly across devices; within
            # each share the pipeline batches by the configured batch size.
            for share in split_evenly(n, self.config.n_devices):
                share_estimates, share_accepted, share_undefined, share_batches = (
                    self.filter_encoded_share(pairs[share])
                )
                accepted[share] = share_accepted
                estimates[share] = share_estimates
                undefined[share] = share_undefined
                n_batches += share_batches
        wall_clock = time.perf_counter() - wall_start

        timing = self.timing_model.filter_timing(
            n,
            self.config.read_length,
            self.config.error_threshold,
            encode_on_device=self.config.encoding is EncodingActor.DEVICE,
            n_devices=self.config.n_devices,
            host_encode_threads=1,
        )
        return FilterRunResult(
            accepted=accepted,
            estimated_edits=estimates,
            undefined=undefined,
            kernel_time_s=timing.kernel_s,
            filter_time_s=timing.filter_s,
            wall_clock_s=wall_clock,
            timing=timing,
            n_batches=n_batches,
            metadata={
                "filter": self.filter.name,
                "encoding": self.config.encoding.value,
                "n_devices": self.config.n_devices,
                "device": self.config.primary_device.name,
                "edge_policy": getattr(self.filter, "edge_policy", None),
                "kernel_tier": self.active_kernel_tier,
            },
        )

    def filter_lists(
        self, reads: Sequence[str], segments: Sequence[str], executor: Any = None
    ) -> FilterRunResult:
        """Filter parallel lists of reads and candidate reference segments.

        Thin adapter: the lists are encoded into an
        :class:`~repro.genomics.encoding.EncodedPairBatch` exactly once and
        handed to :meth:`filter_encoded`.
        """
        if len(reads) != len(segments):
            raise ValueError("reads and segments must have the same length")
        if len(reads) == 0:
            raise ValueError("cannot filter an empty work list")
        return self.filter_encoded(
            EncodedPairBatch.from_lists(reads, segments), executor=executor
        )

    def filter_pairs(self, pairs: Sequence[Any], executor: Any = None) -> FilterRunResult:
        """Filter a sequence of :class:`repro.genomics.sequence.SequencePair`."""
        reads = [p.read for p in pairs]
        segments = [p.reference_segment for p in pairs]
        return self.filter_lists(reads, segments, executor=executor)

    def filter_dataset(self, dataset: Any, executor: Any = None) -> FilterRunResult:
        """Filter a :class:`repro.simulate.PairDataset` (cached encode-once batch)."""
        encoded = getattr(dataset, "encoded", None)
        if callable(encoded):
            batch = encoded()
            if batch.n_pairs:
                return self.filter_encoded(batch, executor=executor)
        return self.filter_lists(dataset.reads, dataset.segments, executor=executor)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FilterEngine({self.filter.name!r}, read_length={self.read_length}, "
            f"error_threshold={self.error_threshold}, n_devices={self.n_devices})"
        )
