"""The unified filtering engine: any registered filter, one vectorized pipeline.

:class:`FilterEngine` runs the GateKeeper-GPU system pipeline for any filter:
batching the encoded work list by the launch configuration of the
configured (simulated) devices, flagging ``N``-containing pairs undefined,
running the filter's packed-word batch kernel, and reporting the analytic
timing model's decomposition.  Any filter resolvable by the
:mod:`repro.engine.registry` — or any :class:`PreAlignmentFilter` instance —
can be dropped in.

An engine is a one-stage cascade (:attr:`FilterEngine.stages` is
``(self,)``), so :meth:`FilterEngine.filter_encoded` and
:meth:`~repro.engine.cascade.FilterCascade.filter_encoded` share one body,
:func:`filter_stages`: it always fans the batch out through
:func:`repro.exec.fanout.fan_out` (as one share when no executor is given),
every share walks the stages (:mod:`repro.exec.tasks`), and every stage
batches through :meth:`FilterEngine.filter_encoded_share`.  Each batch runs
the filter's own
:meth:`~repro.filters.base.PreAlignmentFilter.filter_batch`: its packed-word
kernel (the GateKeeper family's mirrors the CUDA implementation's arithmetic)
at the engine's ``kernel_tier``, plus the undefined/threshold decision rule.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Sequence, Type

import numpy as np
from numpy.typing import NDArray

from ..core.config import EncodingActor, SystemConfiguration
from ..core.buffers import FiltrationBuffers
from ..core.preprocess import kernel_batch_size
from ..core.results import FilterRunResult
from ..filters.base import PreAlignmentFilter
from ..filters.native import DEFAULT_KERNEL_TIER, active_tier, validate_tier
from ..genomics.encoding import EncodedPairBatch
from ..gpusim.device import DeviceSpec, GTX_1080_TI, SystemSetup
from ..gpusim.timing import TimingModel
from .registry import resolve_filter

if TYPE_CHECKING:
    from ..exec.executor import Executor

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
            device_list = (
                list(devices) if devices is not None else [GTX_1080_TI] * n_devices
            )
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
    def stages(self) -> "tuple[FilterEngine]":
        """An engine is a one-stage cascade: every filtering call walks this."""
        return (self,)

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
        return callable(getattr(self.filter, "estimate_edits_words", None))

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
    ) -> "tuple[NDArray[np.int32], NDArray[np.bool_], NDArray[np.bool_]]":
        """Run the batched kernel path over one share of the work.

        One stage's per-share core, which the executor workers' stage walk
        (:mod:`repro.exec.tasks`) runs: no timing model, just batching and
        the kernel on an already-encoded
        :class:`~repro.genomics.encoding.EncodedPairBatch`.  Returns
        ``(estimated_edits, accepted, undefined)``; an empty share yields
        empty arrays.
        """
        self._check_length(pairs)
        n = pairs.n_pairs
        accepted = np.zeros(n, dtype=bool)
        estimates = np.zeros(n, dtype=np.int32)
        step = kernel_batch_size(self.config, n)
        for start in range(0, n, step):
            # Each kernel batch is a row view of ``pairs`` (and of its word
            # arrays, once packed), so no pair is encoded or packed twice.
            batch = slice(start, start + step)
            estimates[batch], accepted[batch] = self.filter.filter_batch(
                pairs[batch], tier=self.kernel_tier
            )
        return estimates, accepted, np.array(pairs.undefined, dtype=bool)

    def filter_encoded(
        self, pairs: EncodedPairBatch, executor: "Executor | None" = None
    ) -> FilterRunResult:
        """Filter an encoded pair batch (the one filtering entry point).

        An engine is a one-stage cascade: see :func:`filter_stages`.
        """
        return filter_stages(self, pairs, executor)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FilterEngine({self.filter.name!r}, read_length={self.read_length}, "
            f"error_threshold={self.error_threshold}, n_devices={self.n_devices})"
        )


def filter_stages(
    engine: Any, pairs: EncodedPairBatch, executor: "Executor | None" = None
) -> FilterRunResult:
    """Filter an encoded pair batch through every stage of ``engine``.

    The one body of :meth:`FilterEngine.filter_encoded` and
    :meth:`~repro.engine.cascade.FilterCascade.filter_encoded`.  The batch
    fans out across ``executor``'s workers (threads or processes,
    shared-memory transport), or runs as one share on a serial executor when
    ``executor`` is ``None``.  Shares are zero-copy row-slice views of
    ``pairs``, and each later stage sees its share's survivors by index
    selection, so nothing is re-encoded, re-packed or rebuilt as strings
    anywhere below this call.  The stage accounts, modelled times and
    ``n_batches`` are evaluated on each stage's total input for the
    configured device split, so the result is byte-identical for every
    backend and worker count.
    """
    # Imported on first use: repro.exec loads multiprocessing, which a
    # plain ``import repro`` does not need.
    from ..exec.fanout import fan_out
    from ..exec.reduce import reduce_totals

    n = pairs.n_pairs
    if n == 0:
        raise ValueError("cannot filter an empty work list")
    first = engine.stages[0]
    first._check_length(pairs)
    wall_start = time.perf_counter()
    estimates, accepted, undefined, stage_inputs = fan_out(engine, pairs, executor)
    wall_clock = time.perf_counter() - wall_start
    accounts, timing, n_batches = reduce_totals(
        engine, n, stage_inputs, int(accepted.sum())
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
            "filter": engine.name,
            "stages": [stage.name for stage in engine.stages],
            "n_devices": first.n_devices,
            "device": first.config.primary_device.name,
            "encoding": first.encoding.value,
            "kernel_tier": first.active_kernel_tier,
        },
        stage_accounts=accounts,
    )
