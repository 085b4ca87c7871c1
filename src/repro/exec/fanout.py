"""Fan a batch across an executor and reduce the shares deterministically.

:func:`fan_out` is the bridge between the filtering layers and the
execution backends, and every filtering call goes through it: it splits an
encoded batch into contiguous shares (one share without an executor), runs
the engine's stage walk (:mod:`repro.exec.tasks`) on every share, and
writes each share's outcome back into preallocated arrays by its absolute
slice — a reduction whose result is independent of completion order,
backend and worker count.  The pairs each stage examined are summed across
the shares.

What *is* partition-dependent — modelled times and kernel-call counts — is
never summed from the shares.  :func:`expected_n_batches` computes the batch
count of the configured device split from the totals alone (each device
share batched by :func:`repro.core.preprocess.kernel_batch_size`), and the
callers evaluate the analytic timing model once on the totals
(:mod:`repro.exec.reduce`).  Together these make results byte-identical
across ``{serial, threads, processes}`` and any number of workers.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from numpy.typing import NDArray

from ..core.preprocess import kernel_batch_size
from ..genomics.encoding import EncodedPairBatch
from ..gpusim.multi_gpu import split_evenly
from .executor import Executor, SerialExecutor, wants_word_arrays

__all__ = ["share_slices", "expected_n_batches", "fan_out"]

#: What ``executor=None`` runs on.  A serial executor holds no pool, so one
#: instance is safe to share between concurrent runs.
_SERIAL = SerialExecutor()


def share_slices(n_items: int, n_shares: int) -> "list[slice]":
    """Contiguous, nearly-equal shares with empty slices dropped.

    ``split_evenly(n, k)`` yields empty slices whenever ``n < k``; those must
    never become tasks (the kernels reject empty work lists), so they are
    filtered here and the executors additionally skip any that slip through.
    """
    return [
        s for s in split_evenly(n_items, max(1, n_shares)) if s.stop > s.start
    ]


def expected_n_batches(config: Any, n_pairs: int) -> int:
    """Kernel calls the configured device split performs on ``n_pairs``.

    Pairs are split evenly across the configured devices and each device
    share is batched by :func:`~repro.core.preprocess.kernel_batch_size`;
    the count is therefore a pure function of the totals, which is how every
    run reports the same ``n_batches`` no matter how the work was
    partitioned across workers.
    """
    total = 0
    for share in split_evenly(n_pairs, config.n_devices):
        n_share = share.stop - share.start
        if n_share:
            total += -(-n_share // kernel_batch_size(config, n_share))
    return total


def fan_out(
    engine: Any, pairs: EncodedPairBatch, executor: "Executor | None" = None
) -> "tuple[NDArray[np.int32], NDArray[np.bool_], NDArray[np.bool_], dict[int, int]]":
    """Run every stage of ``engine`` over ``pairs``, split across the workers.

    Each worker carries its share through all stages locally (survivors are
    pure index selections on its share — nothing is re-encoded).  Returns
    ``(estimates, accepted, undefined, stage_inputs)``.  The arrays are the
    same for every backend and worker count, because every pair's decision
    depends only on that pair.  ``stage_inputs`` maps a stage index to the
    pairs that stage examined, summed across shares; a share that went
    locally extinct contributes nothing to the later stages.
    """
    if wants_word_arrays(engine):
        # Pack the word arrays once on the parent batch: share views inherit
        # the cached rows, so neither thread workers (which would otherwise
        # each pack their own share) nor the shared-memory export ever repack
        # a pair.
        pairs.read_words
        pairs.ref_words
    executor = _SERIAL if executor is None else executor
    n = pairs.n_pairs
    estimates = np.zeros(n, dtype=np.int32)
    accepted = np.zeros(n, dtype=bool)
    undefined = np.zeros(n, dtype=bool)
    stage_inputs: dict[int, int] = {}
    shares = share_slices(n, executor.workers)
    for share, outcome in zip(shares, executor.run_shares("engine", engine, pairs, shares)):
        if outcome is None:
            continue  # empty share: zero contribution, nothing was submitted
        estimates[share] = outcome.estimated_edits
        accepted[share] = outcome.accepted
        undefined[share] = outcome.undefined
        for stage_index, n_input in enumerate(outcome.stage_inputs):
            stage_inputs[stage_index] = stage_inputs.get(stage_index, 0) + n_input
    return estimates, accepted, undefined, stage_inputs
