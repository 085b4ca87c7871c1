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

This module is that discipline, extracted: the engines, the chunk runner
and the shard merge all call these helpers, so the byte-identity contract
lives in one place instead of copies that could drift.  Totals are reduced
stage by stage for every engine — a single
:class:`~repro.engine.FilterEngine` is a one-stage cascade — so one
:func:`reduce_totals` serves single filters and cascades alike.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ..core.config import EncodingActor
from ..core.results import CascadeStageAccount
from ..gpusim.stream import StreamPool
from ..gpusim.timing import FilterTiming
from .fanout import expected_n_batches

__all__ = [
    "reduce_totals",
    "stream_overlap_times",
    "modelled_verification_times",
]


def reduce_totals(
    engine: Any, n_pairs: int, stage_inputs: Mapping[int, int], n_accepted: int
) -> "tuple[list[CascadeStageAccount], FilterTiming, int]":
    """Stage accounts, composite timing and ``n_batches`` from a run's totals.

    ``engine`` is the run's engine or cascade (``None`` when no chunk ever
    resolved one); its ``stages`` are walked in order, a single engine being
    a one-stage cascade.  Stage 0 examined all ``n_pairs``; ``stage_inputs``
    maps every later stage index to the pairs that stage examined, summed
    over every partition; ``n_accepted`` is the run's accepted total.  A
    stage's survivors are the next stage's input (the final stage's are
    ``n_accepted``), and the rows stop at the first stage no partition
    reached.  Timing and ``n_batches`` are evaluated on each stage's total
    input, so the result does not depend on how the run was partitioned.
    """
    accounts: "list[CascadeStageAccount]" = []
    encode = prep = transfer = kernel = 0.0
    n_batches = 0
    stages = engine.stages if engine is not None else ()
    for index, stage in enumerate(stages):
        n_input = n_pairs if index == 0 else int(stage_inputs.get(index, 0))
        if n_input == 0:
            break  # an earlier stage rejected every pair of every partition
        last = index == len(stages) - 1
        stage_accepted = int(n_accepted if last else stage_inputs.get(index + 1, 0))
        timing: FilterTiming = stage.timing_model.filter_timing(
            n_input,
            stage.config.read_length,
            stage.config.error_threshold,
            encode_on_device=stage.config.encoding is EncodingActor.DEVICE,
            n_devices=stage.config.n_devices,
            host_encode_threads=1,
        )
        accounts.append(
            CascadeStageAccount(
                stage=index,
                filter_name=stage.name,
                n_input=n_input,
                n_accepted=stage_accepted,
                n_rejected=n_input - stage_accepted,
                kernel_time_s=timing.kernel_s,
                filter_time_s=timing.filter_s,
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
