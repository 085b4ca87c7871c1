"""Pluggable execution backends: serial, thread pool, process pool.

An :class:`Executor` turns a list of batch shares (row slices of one
:class:`~repro.genomics.encoding.EncodedPairBatch`) into a list of
:class:`~repro.exec.tasks.ShareOutcome` objects, preserving share order.  The
three backends trade setup cost for parallelism:

``serial``
    Runs shares in a plain loop in the calling thread.  The reference
    backend, and what every filtering call without an executor runs on.
``threads``
    A :class:`~concurrent.futures.ThreadPoolExecutor`.  The batch is shared
    in-process (true zero-copy) and the packed NumPy kernels release the GIL,
    so word-kernel filters scale with cores without any transport at all.
``processes``
    A :class:`~concurrent.futures.ProcessPoolExecutor`.  Sidesteps the GIL
    entirely (pure-Python hot spots scale too); the encoded matrices travel
    through one shared-memory segment per fan-out
    (:mod:`repro.exec.shared_batch`) — workers attach views, nothing large is
    pickled.

Empty shares are never submitted as tasks: ``split_evenly(n, workers)``
produces empty slices whenever ``n < workers``, and an empty share would make
the kernels raise — the executor skips them and reports ``None`` in their
position so reductions still account a zero contribution.

Pools are created lazily on first use and must be released with
:meth:`Executor.close` (a :class:`repro.api.Session` does this for every
executor it cached).  Executors are also context managers.
"""

from __future__ import annotations

import weakref
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import wait as concurrent_wait
from typing import TYPE_CHECKING, Any

from ..genomics.encoding import EncodedPairBatch
from .shared_batch import export_batch
from .tasks import ShareOutcome, run_share, run_shared_share

if TYPE_CHECKING:
    from multiprocessing.context import BaseContext
    from multiprocessing.shared_memory import SharedMemory

__all__ = [
    "EXECUTOR_KINDS",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "create_executor",
    "wants_word_arrays",
]

#: Names accepted by :func:`create_executor` and ``ExecutionSpec.executor``.
EXECUTOR_KINDS = ("serial", "threads", "processes")


class Executor:
    """Common backend interface (see module docstring for the contract)."""

    kind: str = "serial"

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = int(workers)
        self.closed = False

    # ------------------------------------------------------------------ #
    # Backend API
    # ------------------------------------------------------------------ #
    def run_shares(
        self, runner: str, engine: Any, pairs: EncodedPairBatch, shares: "list[slice]"
    ) -> "list[ShareOutcome | None]":
        """Run ``runner`` over every non-empty share; ``None`` for empty ones."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the backend's pool (idempotent)."""
        self.closed = True

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _check_open(self) -> None:
        if self.closed:
            raise RuntimeError(f"{self.kind} executor has been closed")

    @staticmethod
    def _nonempty(shares: "list[slice]") -> "list[int]":
        return [
            i for i, s in enumerate(shares) if (s.stop - s.start) > 0
        ]

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(workers={self.workers})"


class SerialExecutor(Executor):
    """The reference backend: shares run back-to-back in the caller."""

    kind = "serial"

    def run_shares(
        self, runner: str, engine: Any, pairs: EncodedPairBatch, shares: "list[slice]"
    ) -> "list[ShareOutcome | None]":
        self._check_open()
        return [
            run_share(runner, engine, pairs, share)
            if (share.stop - share.start) > 0
            else None
            for share in shares
        ]


class ThreadExecutor(Executor):
    """Thread-pool backend: zero-copy sharing, GIL-releasing kernels scale."""

    kind = "threads"

    def __init__(self, workers: int = 1) -> None:
        super().__init__(workers)
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        self._check_open()
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-exec"
            )
        return self._pool

    def run_shares(
        self, runner: str, engine: Any, pairs: EncodedPairBatch, shares: "list[slice]"
    ) -> "list[ShareOutcome | None]":
        pool = self._ensure_pool()
        keep = self._nonempty(shares)
        futures: dict[int, Future[ShareOutcome]] = {
            i: pool.submit(run_share, runner, engine, pairs, shares[i]) for i in keep
        }
        return [futures[i].result() if i in futures else None for i in range(len(shares))]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        super().close()


def _preferred_mp_context() -> "BaseContext":
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    # Never fork: pools are filled lazily, so workers can be forked while the
    # caller is multi-threaded (streaming's prefetch producer, thread pools),
    # and a forked child inheriting a held allocator/queue lock deadlocks.
    # forkserver forks from a clean single-threaded server process instead —
    # thread-safe with near-fork worker start; spawn is the portable fallback.
    return multiprocessing.get_context(
        "forkserver" if "forkserver" in methods else "spawn"
    )


class ProcessExecutor(Executor):
    """Process-pool backend with shared-memory batch transport.

    Per fan-out the parent exports the encoded batch into one shared-memory
    segment (one copy; the packed word arrays are materialised on the parent
    batch first so each pair is packed exactly once), workers attach views,
    and only the tiny handle + row slice crosses the task pipe.  The segment
    is closed and unlinked as soon as the fan-out completes; a finalizer and
    :meth:`close` guarantee nothing leaks even on error paths.
    """

    kind = "processes"

    def __init__(self, workers: int = 1) -> None:
        super().__init__(workers)
        self._pool: ProcessPoolExecutor | None = None
        self._live_segments: dict[str, SharedMemory] = {}
        self._finalizer = weakref.finalize(self, ProcessExecutor._cleanup, self.__dict__)

    @staticmethod
    def _cleanup(state: dict[str, Any]) -> None:
        pool = state.get("_pool")
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        for segment in list(state.get("_live_segments", {}).values()):
            try:
                segment.close()
                segment.unlink()
            except Exception:  # pragma: no cover - already released
                pass
        state["_live_segments"] = {}
        state["_pool"] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        self._check_open()
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=_preferred_mp_context()
            )
        return self._pool

    @property
    def live_segments(self) -> int:
        """Shared-memory segments currently owned (0 between fan-outs)."""
        return len(self._live_segments)

    def run_shares(
        self, runner: str, engine: Any, pairs: EncodedPairBatch, shares: "list[slice]"
    ) -> "list[ShareOutcome | None]":
        pool = self._ensure_pool()
        keep = self._nonempty(shares)
        if not keep:
            return [None] * len(shares)
        include_words = wants_word_arrays(engine)
        segment, handle = export_batch(pairs, include_words=include_words)
        self._live_segments[segment.name] = segment
        try:
            futures: dict[int, Future[ShareOutcome]] = {
                i: pool.submit(run_shared_share, runner, engine, handle, shares[i])
                for i in keep
            }
            # Let every share finish (or fail) before the segment goes away:
            # unlinking while siblings are still queued would make their
            # attach fail and mask the first real error with FileNotFoundError
            # noise in never-awaited futures.
            concurrent_wait(list(futures.values()))
            return [
                futures[i].result() if i in futures else None
                for i in range(len(shares))
            ]
        finally:
            segment.close()
            segment.unlink()
            del self._live_segments[segment.name]

    def close(self) -> None:
        # Explicit close waits for the workers (unlike the GC finalizer,
        # which must not block): a closed session/executor leaves no child
        # processes behind.
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        self._finalizer()  # releases any leftover segments; idempotent
        super().close()


def wants_word_arrays(engine: Any) -> bool:
    """Whether any stage of ``engine`` consumes the packed word arrays."""
    return any(stage._needs_word_arrays for stage in engine.stages)


_EXECUTOR_CLASSES: dict[str, type[Executor]] = {
    "serial": SerialExecutor,
    "threads": ThreadExecutor,
    "processes": ProcessExecutor,
}


def create_executor(kind: str = "serial", workers: int = 1) -> Executor:
    """Build an executor by backend name (``ExecutionSpec.executor`` values)."""
    try:
        cls = _EXECUTOR_CLASSES[kind]
    except KeyError:
        raise ValueError(
            f"unknown executor {kind!r} (expected one of {list(EXECUTOR_KINDS)})"
        ) from None
    return cls(workers)
