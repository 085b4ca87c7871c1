"""Execution backends: real multi-core execution of the filtering stack.

The paper's subject is scaling pre-alignment filtration across parallel
hardware; this package is the host-side counterpart — pluggable
:class:`Executor` backends (``serial``, ``threads``, ``processes``) that fan
encoded-batch shares across cores with deterministic reduction, plus the
shared-memory transport that lets process workers attach
:class:`~repro.genomics.encoding.EncodedPairBatch` views without pickling the
code/word matrices.

Layering
--------
* :mod:`repro.exec.executor` — the backends and :func:`create_executor`.
* :mod:`repro.exec.shared_batch` — export/attach of encoded batches through
  one POSIX shared-memory segment per fan-out (pack once, view everywhere).
* :mod:`repro.exec.tasks` — the one picklable share runner: the stage walk
  (a single engine is a one-stage cascade).
* :mod:`repro.exec.fanout` — :func:`fan_out`: share splitting,
  order-preserving reduction, per-stage input counts, and the analytic
  ``n_batches`` accounting that keeps results byte-identical across
  backends and worker counts.
* :mod:`repro.exec.reduce` — modelled times and stage accounts recomputed
  from totals (engines, the chunk runner and the shard merge).

Entry points above this package: ``FilterEngine.filter_encoded(pairs,
executor=None)`` and ``FilterCascade.filter_encoded(pairs, executor=None)``
share one body that always fans out through :func:`fan_out`; without an
executor the batch runs as one share on a serial executor.  The one chunk
runner (:mod:`repro.runtime.streaming`) calls them for every chunk of every
run — driven by ``ExecutionSpec.executor`` / ``workers`` on a
:class:`repro.api.Workload` and executed by a :class:`repro.api.Session`
that caches one pool per backend configuration and shuts it down on
:meth:`Session.close`.
"""

from .executor import (
    EXECUTOR_KINDS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    create_executor,
    wants_word_arrays,
)
from .fanout import expected_n_batches, fan_out, share_slices
from .reduce import modelled_verification_times, reduce_totals, stream_overlap_times
from .shared_batch import SharedBatchHandle, attach_batch, export_batch
from .tasks import ShareOutcome

__all__ = [
    "EXECUTOR_KINDS",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "create_executor",
    "wants_word_arrays",
    "ShareOutcome",
    "SharedBatchHandle",
    "attach_batch",
    "export_batch",
    "share_slices",
    "expected_n_batches",
    "fan_out",
    "reduce_totals",
    "stream_overlap_times",
    "modelled_verification_times",
]
