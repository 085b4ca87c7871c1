"""Totals-based reduction: recompute modelled quantities from merged counts.

Every partitioned execution path in the repo — executor fan-out
(:mod:`repro.exec.fanout`), streamed chunks
(:class:`repro.runtime.streaming.StreamingPipeline`), and cluster shards
(:mod:`repro.cluster`) — obeys one discipline: integer counts are summed
exactly, while modelled times and ``n_batches`` are **recomputed
analytically from the merged totals**, never summed per-partition.  Float
addition is not associative, so summing per-partition model outputs would
make the result depend on how the work was split; evaluating the model once
on the totals — with exactly the calls the unpartitioned path makes, in
exactly the same order — keeps results byte-identical across partitionings.

This module is that discipline, extracted: the streaming pipeline, the
parallel cascade and the shard merge all call these helpers, so the
byte-identity contract lives in one place instead of three copies that could
drift.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, Sequence

from .. import _schema as K
from ..core.config import EncodingActor
from ..gpusim.stream import StreamPool
from ..gpusim.timing import FilterTiming
from .fanout import expected_n_batches

if TYPE_CHECKING:
    from ..engine.cascade import CascadeStageAccount

__all__ = [
    "stage_timing",
    "total_timing",
    "cascade_accounts_from_totals",
    "streaming_stage_rows",
    "stream_overlap_times",
    "modelled_verification_times",
]


def stage_timing(stage: Any, n_input: int) -> FilterTiming:
    """The analytic timing of one engine examining ``n_input`` pairs.

    Exactly the call :meth:`FilterEngine.filter_encoded` makes for a batch of
    ``n_input`` pairs — the single source every totals-based reduction must
    replay.  ``filter_timing(0, ...)`` is exactly zero for every component,
    which is what lets accumulation loops iterate all stages while matching a
    serial sweep that breaks at the first extinct stage.
    """
    timing = stage.timing_model.filter_timing(
        n_input,
        stage.config.read_length,
        stage.config.error_threshold,
        encode_on_device=stage.config.encoding is EncodingActor.DEVICE,
        n_devices=stage.config.n_devices,
        host_encode_threads=1,
    )
    assert isinstance(timing, FilterTiming)
    return timing


def total_timing(
    engine: Any, n_pairs: int, stage_inputs: Mapping[int, int]
) -> FilterTiming:
    """Evaluate the analytic model on final totals (engine or cascade).

    These are exactly the calls an unchunked ``filter_encoded`` makes
    (``FilterEngine`` once, or ``FilterCascade`` once per stage on that
    stage's total input), which is what makes streamed — and merged —
    totals byte-identical to a single-chunk memory-mode run.
    """
    if engine is None or n_pairs == 0:
        return FilterTiming(encode_s=0.0, host_prep_s=0.0, transfer_s=0.0, kernel_s=0.0)
    if hasattr(engine, "stages"):
        encode = prep = transfer = kernel = 0.0
        for stage_index, stage in enumerate(engine.stages):
            timing = stage_timing(stage, stage_inputs.get(stage_index, 0))
            encode += timing.encode_s
            prep += timing.host_prep_s
            transfer += timing.transfer_s
            kernel += timing.kernel_s
        return FilterTiming(
            encode_s=encode, host_prep_s=prep, transfer_s=transfer, kernel_s=kernel
        )
    return stage_timing(engine, n_pairs)


def cascade_accounts_from_totals(
    stages: Sequence[Any], stage_totals: Mapping[int, tuple[int, int]]
) -> "tuple[list[CascadeStageAccount], FilterTiming, int]":
    """Rebuild a cascade's per-stage accounting from summed stage totals.

    ``stage_totals`` maps stage index to ``(n_input, n_accepted)`` summed
    over every partition.  Returns the stage accounts, the composite timing
    and the analytic ``n_batches`` — byte-identical to the serial sweep
    (which breaks once a stage's input goes extinct; so does this loop).
    Measured per-stage wall clock is partition-dependent and reported as 0.
    """
    from ..engine.cascade import CascadeStageAccount

    accounts: "list[CascadeStageAccount]" = []
    encode = prep = transfer = kernel = 0.0
    n_batches = 0
    for stage_index, stage in enumerate(stages):
        n_input, n_accepted = stage_totals.get(stage_index, (0, 0))
        if n_input == 0:
            break  # every partition went extinct before this stage (serial: break)
        timing = stage_timing(stage, n_input)
        accounts.append(
            CascadeStageAccount(
                stage=stage_index,
                filter_name=stage.name,
                n_input=n_input,
                n_accepted=n_accepted,
                n_rejected=n_input - n_accepted,
                kernel_time_s=timing.kernel_s,
                filter_time_s=timing.filter_s,
                wall_clock_s=0.0,
            )
        )
        encode += timing.encode_s
        prep += timing.host_prep_s
        transfer += timing.transfer_s
        kernel += timing.kernel_s
        n_batches += expected_n_batches(stage.config, n_input)
    composite = FilterTiming(
        encode_s=encode, host_prep_s=prep, transfer_s=transfer, kernel_s=kernel
    )
    return accounts, composite, n_batches


def streaming_stage_rows(
    stages: Sequence[Any], stage_inputs: Mapping[int, int], n_accepted: int
) -> "list[dict[str, Any]]":
    """Cascade stage rows reconstructed from per-stage input totals.

    Rows carry the same keys as the in-memory cascade accounts and — per the
    streaming/in-memory equivalence contract — the same values: stage
    survivors are the next stage's total input (the final stage's survivors
    are the run's accepted total ``n_accepted``), and per-stage modelled
    times are the timing model evaluated on the stage's total input.
    """
    rows: "list[dict[str, Any]]" = []
    for index, stage in enumerate(stages):
        if index not in stage_inputs:
            break  # an earlier stage rejected everything in every chunk
        n_input = int(stage_inputs[index])
        if index + 1 in stage_inputs:
            stage_accepted = int(stage_inputs[index + 1])
        elif index == len(stages) - 1:
            stage_accepted = int(n_accepted)
        else:
            stage_accepted = 0
        timing = stage_timing(stage, n_input)
        rows.append(
            {
                K.STAGE: index,
                K.FILTER: stage.name,
                K.N_INPUT: n_input,
                K.N_ACCEPTED: stage_accepted,
                K.N_REJECTED: n_input - stage_accepted,
                K.KERNEL_TIME_S: timing.kernel_s,
                K.FILTER_TIME_S: timing.filter_s,
            }
        )
    return rows


def stream_overlap_times(
    device_transfer: Sequence[float],
    device_kernel: Sequence[float],
    host_time: float,
    n_devices: int,
) -> "tuple[float, float]":
    """Materialise the stream model from per-device accumulated work.

    One stream per device with its accumulated H2D and kernel work:
    concurrent streams overlap, so overlapped execution completes at the
    busiest device (makespan, host work amortised across devices); serial
    execution pays every operation back-to-back.  Returns
    ``(serial_time_s, overlapped_time_s)``.
    """
    pool = StreamPool()
    for device_index, (transfer_s, kernel_s) in enumerate(
        zip(device_transfer, device_kernel)
    ):
        stream = pool.create()
        stream.enqueue("prefetch", f"gpu{device_index}/h2d", transfer_s)
        stream.enqueue("kernel", f"gpu{device_index}/filter", kernel_s)
    serial_time = host_time + pool.serialized_time_s
    overlapped_time = host_time / max(1, n_devices) + pool.makespan_s
    return serial_time, overlapped_time


def modelled_verification_times(
    n_accepted: int, n_pairs: int, read_length: int, cost_per_pair_s: float
) -> "tuple[float, float]":
    """Model-scale verification times on the final totals.

    Count times per-pair cost, then the quadratic read-length factor, in
    that order, whatever the chunking.  Returns
    ``(verification_time_s, no_filter_verification_time_s)``.
    """
    verification_time = n_accepted * cost_per_pair_s
    no_filter_time = n_pairs * cost_per_pair_s
    length_factor = (read_length / 100.0) ** 2 if read_length else 0.0
    verification_time *= length_factor
    no_filter_time *= length_factor
    return verification_time, no_filter_time
