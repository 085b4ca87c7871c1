"""The unit of parallel work: one engine's stage walk over one batch share.

Executors parallelise *shares*: contiguous row slices of an already-encoded
:class:`~repro.genomics.encoding.EncodedPairBatch`.  Every pair's decision
depends only on that pair, so every partition of the rows gives the same
decisions; the modelled times and batch counts that *do* depend on how the
work was partitioned are recomputed analytically from the totals by the
caller (:mod:`repro.exec.reduce`), which is what makes results
byte-identical across backends and worker counts.

There is one runner, the stage walk: a :class:`~repro.engine.FilterEngine`
is a one-stage cascade, so engines and cascades run the same code.  Runners
are module-level functions keyed by name so the process backend can ship
``(runner_name, engine, handle, slice)`` through the task pipe — no
closures, and never the encoded matrices themselves (those travel through
shared memory, see :mod:`repro.exec.shared_batch`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from numpy.typing import NDArray

from ..genomics.encoding import EncodedPairBatch
from .shared_batch import SharedBatchHandle, attach_batch

__all__ = ["ShareOutcome", "run_share", "RUNNERS"]


@dataclass
class ShareOutcome:
    """What one share contributes back to the reduction.

    ``stage_inputs`` holds the number of pairs each stage examined, for
    every stage this share actually reached (a share whose pairs all die at
    stage ``k`` reports ``k + 1`` counts; stage 0 always sees the share).
    """

    estimated_edits: NDArray[np.int32]
    accepted: NDArray[np.bool_]
    undefined: NDArray[np.bool_]
    stage_inputs: list[int]


def _run_stages(engine: Any, share: EncodedPairBatch) -> ShareOutcome:
    """The stage walk: every stage of ``engine`` over one share.

    Stage 0's arrays are the share's outputs, so a single engine pays for no
    index arrays.  Each later stage only sees the survivors of every earlier
    stage, selected by pure index selection on the share (nothing is
    re-encoded); a pair reports the estimate of the last stage that examined
    it (the stage that rejected it, or the final stage).  Undefined pairs
    pass every stage.
    """
    first, *rest = engine.stages
    estimates, accepted, undefined = first.filter_encoded_share(share)
    stage_inputs = [share.n_pairs]
    if rest:
        alive = np.flatnonzero(accepted)
        survivors, keep = share, alive
        for stage in rest:
            if len(alive) == 0:
                break
            survivors = survivors.select(keep)
            stage_estimates, stage_accepted, _ = stage.filter_encoded_share(survivors)
            estimates[alive] = stage_estimates
            stage_inputs.append(len(alive))
            keep = np.flatnonzero(stage_accepted)
            alive = alive[keep]
        accepted[:] = False
        accepted[alive] = True
    return ShareOutcome(estimates, accepted, undefined, stage_inputs)


#: Runner registry: names cross the process boundary, functions do not.
RUNNERS: dict[str, Callable[[Any, EncodedPairBatch], ShareOutcome]] = {
    "engine": _run_stages,
}


def run_share(
    runner: str, engine: Any, pairs: EncodedPairBatch, share: slice
) -> ShareOutcome:
    """Run one share in-process (serial and thread backends)."""
    return RUNNERS[runner](engine, pairs[share])


def run_shared_share(
    runner: str, engine: Any, handle: SharedBatchHandle, share: slice
) -> ShareOutcome:
    """Process-worker entry point: attach the shared segment, run one share.

    The outcome arrays are freshly allocated by the kernels (never views of
    the shared buffer), so the segment can be detached before returning.
    """
    pairs, segment = attach_batch(handle)
    try:
        return RUNNERS[runner](engine, pairs[share])
    finally:
        # Drop every view pinning the buffer before close() — NumPy arrays
        # over shm.buf hold exported memoryviews.
        del pairs
        segment.close()
