"""Fan a batch across an executor and reduce the shares deterministically.

These helpers are the bridge between the filtering layers and the execution
backends, and every filtering call goes through them:
:func:`fan_out_engine` / :func:`fan_out_cascade` split an encoded batch into
contiguous shares (one share without an executor), run them on the
executor, and write each share's outcome back into preallocated arrays by
its absolute slice — a reduction whose result is independent of completion
order, backend and worker count.

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
from .tasks import ShareOutcome

__all__ = [
    "share_slices",
    "expected_n_batches",
    "fan_out_engine",
    "fan_out_cascade",
]

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


def fan_out_engine(
    engine: Any, pairs: EncodedPairBatch, executor: "Executor | None" = None
) -> "tuple[NDArray[np.int32], NDArray[np.bool_], NDArray[np.bool_]]":
    """Run one engine over ``pairs`` split across the executor's workers.

    Returns ``(estimated_edits, accepted, undefined)`` — the same arrays for
    every backend and worker count, because every pair's decision depends
    only on that pair.
    """
    estimates, accepted, undefined, _ = _fan_out("engine", engine, pairs, executor)
    return estimates, accepted, undefined


def fan_out_cascade(
    cascade: Any, pairs: EncodedPairBatch, executor: "Executor | None" = None
) -> "tuple[NDArray[np.int32], NDArray[np.bool_], NDArray[np.bool_], dict[int, int]]":
    """Run every cascade stage over ``pairs``, split across the workers.

    Each worker carries its share through all stages locally (survivors are
    pure index selections on its share — nothing is re-encoded).  The pairs
    each stage examined are summed across shares into ``stage_inputs``
    (stage index -> count); a share that went locally extinct contributes
    nothing to the later stages.  Returns ``(estimates, accepted, undefined,
    stage_inputs)``.
    """
    estimates, accepted, undefined, outcomes = _fan_out(
        "cascade", cascade, pairs, executor
    )
    stage_inputs: dict[int, int] = {}
    for outcome in outcomes:
        for stage_index, n_input in enumerate(outcome.stage_inputs or []):
            stage_inputs[stage_index] = stage_inputs.get(stage_index, 0) + n_input
    return estimates, accepted, undefined, stage_inputs


def _fan_out(
    runner: str, engine: Any, pairs: EncodedPairBatch, executor: "Executor | None"
) -> "tuple[NDArray[np.int32], NDArray[np.bool_], NDArray[np.bool_], list[ShareOutcome]]":
    """Run ``runner`` over the shares of ``pairs`` and write each outcome back.

    Returns the reduced ``(estimates, accepted, undefined)`` arrays and the
    outcomes of the non-empty shares.
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
    shares = share_slices(n, executor.workers)
    outcomes: list[ShareOutcome] = []
    for share, outcome in zip(shares, executor.run_shares(runner, engine, pairs, shares)):
        if outcome is None:
            continue  # empty share: zero contribution, nothing was submitted
        estimates[share] = outcome.estimated_edits
        accepted[share] = outcome.accepted
        undefined[share] = outcome.undefined
        outcomes.append(outcome)
    return estimates, accepted, undefined, outcomes
