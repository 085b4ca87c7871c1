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
* :mod:`repro.exec.tasks` — the picklable share runners (engine / cascade).
* :mod:`repro.exec.fanout` — share splitting, order-preserving reduction and
  the analytic ``n_batches`` accounting that keeps results byte-identical
  across backends and worker counts.

Entry points above this package: ``FilterEngine.filter_encoded(...,
executor=...)`` and ``FilterCascade.filter_encoded(..., executor=...)``, which
the one chunk runner (:mod:`repro.runtime.streaming`) calls for every chunk
of every run — driven by ``ExecutionSpec.executor`` / ``workers`` on a
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
from .fanout import expected_n_batches, fan_out_cascade, fan_out_engine, share_slices
from .reduce import (
    cascade_accounts_from_totals,
    modelled_verification_times,
    stream_overlap_times,
    streaming_stage_rows,
    total_timing,
)
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
    "fan_out_engine",
    "fan_out_cascade",
    "total_timing",
    "cascade_accounts_from_totals",
    "streaming_stage_rows",
    "stream_overlap_times",
    "modelled_verification_times",
]
