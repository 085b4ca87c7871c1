"""The resident filter-as-a-service daemon.

:class:`ReproServer` holds one long-lived :class:`~repro.api.Session` — warm
engines, cached encoded datasets, reference indexes — and serves concurrent
workload submissions over the newline-framed JSON protocol of
:mod:`repro.serve.protocol`.  The design is queue-centred:

* every ``run`` request is parsed and validated on its connection's handler
  thread, then enqueued into a **bounded** request queue
  (``queue_depth`` slots).  A full queue rejects the request *immediately*
  with a typed ``queue_full`` error — explicit backpressure, never unbounded
  buffering, never a hung client;
* ``workers`` worker threads drain the queue and execute
  :meth:`Session.run` on the shared resident session (runs are pure with
  respect to the session caches, and the caches themselves are lock-guarded,
  so concurrent workers produce byte-identical results to a serial run —
  hammered by ``tests/test_serve_concurrency.py``);
* ``status`` / ``ping`` requests are answered inline on the handler thread,
  so observability keeps working while the queue is full or draining;
* shutdown (:meth:`request_shutdown`, wired to SIGTERM by ``repro serve``)
  is graceful: new ``run`` requests are rejected with ``shutting_down``,
  queued and in-flight requests complete and deliver their responses, and
  :meth:`Session.close` releases every pooled executor (leaving
  ``live_segments == 0`` on the process backend).

Per-client accounting (requests, completions, rejections, failures, pairs
filtered, measured run wall time) is kept for every ``client`` label a
request carries and served by the ``status`` operation.
"""

from __future__ import annotations

import dataclasses
import queue
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any

from .. import _schema as K
from ..api.session import Session
from ..api.workload import PlannerSpec, Workload
from ..filters.native import validate_tier
from . import protocol as P

__all__ = ["ReproServer", "DEFAULT_QUEUE_DEPTH", "DEFAULT_REQUEST_TIMEOUT_S"]

#: Default bounded-queue depth (pending ``run`` requests beyond the in-flight
#: ones; the 429-style backpressure threshold).
DEFAULT_QUEUE_DEPTH = 8

#: How long a connection may dawdle before its read is abandoned.
DEFAULT_REQUEST_TIMEOUT_S = 30.0


@dataclass
class _ClientStats:
    """Accounting for one client label (guarded by the server's stats lock)."""

    requests: int = 0
    completed: int = 0
    rejected: int = 0
    failed: int = 0
    pairs_filtered: int = 0
    run_time_s: float = 0.0

    def as_dict(self) -> "dict[str, Any]":
        return {
            K.REQUESTS: self.requests,
            K.COMPLETED: self.completed,
            K.REJECTED: self.rejected,
            K.FAILED: self.failed,
            K.PAIRS_FILTERED: self.pairs_filtered,
            K.RUN_TIME_S: round(self.run_time_s, 6),
        }


@dataclass
class _Job:
    """One queued ``run`` request; the worker owns the connection."""

    workload: Workload
    client: str
    conn: socket.socket


class ReproServer:
    """A resident ``repro serve`` daemon (see module docstring).

    Parameters
    ----------
    host / port:
        Listen address; ``port=0`` binds an ephemeral port (read it back from
        :attr:`port` — the test suites and benchmarks do this).
    workers:
        Worker threads draining the request queue (concurrent
        :meth:`Session.run` executions).
    queue_depth:
        Bounded queue capacity; a ``run`` arriving while ``queue_depth``
        requests are already pending is rejected with ``queue_full``.
    max_request_bytes:
        Per-frame size ceiling (typed ``payload_too_large`` beyond it).
    session:
        An existing resident :class:`Session` to serve from; by default the
        server builds (and owns) a fresh one.  Either way :meth:`stop` calls
        :meth:`Session.close` — that only releases executor pools, the
        construction caches survive.
    kernel_tier:
        Daemon-wide default kernel tier.  Submitted workloads that left
        ``execution.kernel_tier`` at ``"auto"`` run with this tier instead; a
        workload that pinned ``"numpy"`` or ``"native"`` explicitly keeps its
        own choice.  ``None`` (the default) applies no override.
    planner_defaults:
        Daemon-wide ``[filter.planner]`` defaults (a mapping with
        ``sample_pairs`` / ``false_accept_budget`` / ``max_stages`` /
        ``candidates`` keys, validated at construction).  Submitted
        ``filter = "auto"`` workloads that carry no ``planner`` section of
        their own plan with these knobs; workloads with an explicit planner
        section keep their own.  Because the resident session caches plans by
        (input identity, threshold, planner knobs), repeated ``auto``
        submissions for the same data plan exactly once.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        max_request_bytes: int = P.DEFAULT_MAX_REQUEST_BYTES,
        request_timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S,
        session: "Session | None" = None,
        kernel_tier: "str | None" = None,
        planner_defaults: "dict[str, Any] | None" = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be at least 1")
        if max_request_bytes < 1:
            raise ValueError("max_request_bytes must be at least 1")
        if kernel_tier is not None:
            validate_tier(kernel_tier)
        self.kernel_tier = kernel_tier
        self.planner_defaults: "PlannerSpec | None" = None
        if planner_defaults is not None:
            from ..api.workload import _build_section

            # Validate once, at daemon construction — a bad default should
            # kill the server at startup, not every request at submit time.
            self.planner_defaults = _build_section(
                PlannerSpec, "filter.planner", planner_defaults
            )
        self.host = host
        self.workers = int(workers)
        self.queue_depth = int(queue_depth)
        self.max_request_bytes = int(max_request_bytes)
        self.request_timeout_s = float(request_timeout_s)
        self.session = session if session is not None else Session()
        self._requested_port = int(port)
        self._port: "int | None" = None
        self._listener: "socket.socket | None" = None
        self._queue: "queue.Queue[_Job | None]" = queue.Queue(maxsize=queue_depth)
        self._stats: "dict[str, _ClientStats]" = {}
        self._stats_lock = threading.Lock()
        self._in_flight = 0
        self._draining = threading.Event()
        self._shutdown_requested = threading.Event()
        self._worker_threads: "list[threading.Thread]" = []
        self._accept_thread: "threading.Thread | None" = None
        self._started = False
        self._stopped = False
        self._start_clock = 0.0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def port(self) -> int:
        """The bound port (valid after :meth:`start`)."""
        if self._port is None:
            raise RuntimeError("server has not been started")
        return self._port

    @property
    def draining(self) -> bool:
        """Whether graceful shutdown has begun (new runs are rejected)."""
        return self._draining.is_set()

    def start(self) -> "ReproServer":
        """Bind the listener and launch the accept/worker threads."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        self._listener = socket.create_server(
            (self.host, self._requested_port), backlog=128
        )
        self._port = int(self._listener.getsockname()[1])
        self._start_clock = time.perf_counter()
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"repro-serve-worker-{index}", daemon=True
            )
            thread.start()
            self._worker_threads.append(thread)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def request_shutdown(self) -> None:
        """Begin graceful shutdown (the SIGTERM entry point).

        New ``run`` requests are rejected with ``shutting_down`` from this
        moment; queued and in-flight requests still complete.  The actual
        drain happens in :meth:`stop` (which ``repro serve`` calls once
        :meth:`wait_for_shutdown` returns).
        """
        self._draining.set()
        self._shutdown_requested.set()

    def wait_for_shutdown(self, timeout: "float | None" = None) -> bool:
        """Block until :meth:`request_shutdown` is called (or timeout)."""
        return self._shutdown_requested.wait(timeout)

    def stop(self, drain: bool = True) -> None:
        """Drain and shut down: workers join, listener closes, session closes.

        ``drain=True`` (the graceful path) lets every queued request execute
        and deliver its response first; ``drain=False`` answers queued
        requests with ``shutting_down`` instead.  Idempotent.  In-flight
        requests complete under both modes — workers are joined, never
        killed.
        """
        if self._stopped:
            return
        self._stopped = True
        self._draining.set()
        self._shutdown_requested.set()
        if not drain:
            self._flush_queue()
        # One sentinel per worker; blocking puts are safe because only
        # sentinels enter the queue now (handlers reject during draining)
        # and the workers keep consuming.
        for _ in self._worker_threads:
            self._queue.put(None)
        for thread in self._worker_threads:
            thread.join()
        # A handler racing request_shutdown() may have enqueued a job after
        # the drain check but after the workers exited; answer it now rather
        # than leaving its client hanging.
        self._flush_queue()
        if self._listener is not None:
            # On Linux close() alone does not wake a thread blocked in
            # accept(); shutdown() does, so the accept thread exits now.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        self.session.close()

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _flush_queue(self) -> None:
        """Answer every still-queued job with ``shutting_down``."""
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                return
            if job is None:
                continue
            self._record_rejection(job.client)
            self._respond(
                job.conn,
                P.error_envelope(
                    P.ERR_SHUTTING_DOWN,
                    "server is shutting down; the request was not executed",
                ),
            )

    # ------------------------------------------------------------------ #
    # Accept / connection handling
    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        listener = self._listener
        assert listener is not None
        while True:
            try:
                conn, _addr = listener.accept()
            except OSError:  # listener closed: shutdown
                return
            thread = threading.Thread(
                target=self._handle_connection, args=(conn,), daemon=True
            )
            thread.start()

    def _handle_connection(self, conn: socket.socket) -> None:
        """Read, validate and dispatch one request (one exchange per conn)."""
        handed_off = False
        try:
            conn.settimeout(self.request_timeout_s)
            try:
                frame = P.read_frame(conn, self.max_request_bytes)
                if frame is None:  # peer connected and left silently
                    return
                request = P.parse_request(P.decode_frame(frame))
            except P.ProtocolError as exc:
                self._respond(conn, P.error_envelope(exc.code, exc.message), close=False)
                return
            if request.op == "ping":
                self._respond(conn, P.ping_envelope(), close=False)
            elif request.op == "status":
                self._respond(
                    conn, P.status_envelope(self.status_payload()), close=False
                )
            else:
                handed_off = self._submit_run(request, conn)
        finally:
            if not handed_off:
                self._close(conn)

    def _submit_run(self, request: P.Request, conn: socket.socket) -> bool:
        """Enqueue a validated ``run`` (or reject it); True if a worker owns
        the connection now."""
        client = request.client
        with self._stats_lock:
            stats = self._stats.setdefault(client, _ClientStats())
            stats.requests += 1
        if self._draining.is_set():
            self._record_rejection(client)
            self._respond(
                conn,
                P.error_envelope(
                    P.ERR_SHUTTING_DOWN,
                    "server is shutting down and no longer accepts workloads",
                ),
                close=False,
            )
            return False
        try:
            workload = Workload.from_dict(request.workload or {})
        except (ValueError, KeyError, TypeError) as exc:
            with self._stats_lock:
                self._stats[client].failed += 1
            self._respond(
                conn, P.error_envelope(P.ERR_BAD_WORKLOAD, str(exc)), close=False
            )
            return False
        if self.kernel_tier is not None and workload.execution.kernel_tier == "auto":
            # Daemon-wide default; explicit numpy/native pins in the workload win.
            workload = workload.replace(
                execution=dataclasses.replace(
                    workload.execution, kernel_tier=self.kernel_tier
                )
            )
        if (
            self.planner_defaults is not None
            and workload.filter.is_auto
            and workload.filter.planner is None
        ):
            # Daemon-wide planner knobs; an explicit [filter.planner] wins.
            workload = workload.replace(
                filter=dataclasses.replace(
                    workload.filter, planner=self.planner_defaults
                )
            )
        job = _Job(workload=workload, client=client, conn=conn)
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            self._record_rejection(client)
            self._respond(
                conn,
                P.error_envelope(
                    P.ERR_QUEUE_FULL,
                    f"request queue is full ({self.queue_depth} pending); "
                    "back off and retry",
                ),
                close=False,
            )
            return False
        return True

    # ------------------------------------------------------------------ #
    # Workers
    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                self._queue.task_done()
                return
            with self._stats_lock:
                self._in_flight += 1
            try:
                self._execute(job)
            finally:
                with self._stats_lock:
                    self._in_flight -= 1
                self._queue.task_done()

    def _execute(self, job: _Job) -> None:
        start = time.perf_counter()
        try:
            result = self.session.run(job.workload)
        except Exception as exc:  # typed envelope, never a dead connection
            with self._stats_lock:
                self._stats[job.client].failed += 1
            self._respond(
                job.conn,
                P.error_envelope(P.ERR_INTERNAL, f"{type(exc).__name__}: {exc}"),
            )
            return
        elapsed = time.perf_counter() - start
        payload = result.as_dict()
        with self._stats_lock:
            stats = self._stats[job.client]
            stats.completed += 1
            stats.pairs_filtered += int(result.summary.get(K.N_PAIRS, 0))
            stats.run_time_s += elapsed
        self._respond(job.conn, P.run_envelope(payload))

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    def _record_rejection(self, client: str) -> None:
        with self._stats_lock:
            self._stats.setdefault(client, _ClientStats()).rejected += 1

    def status_payload(self) -> "dict[str, Any]":
        """The ``status`` operation's accounting payload."""
        with self._stats_lock:
            clients = {
                name: self._stats[name].as_dict() for name in sorted(self._stats)
            }
            in_flight = self._in_flight
        totals = _ClientStats()
        for row in clients.values():
            totals.requests += int(row[K.REQUESTS])
            totals.completed += int(row[K.COMPLETED])
            totals.rejected += int(row[K.REJECTED])
            totals.failed += int(row[K.FAILED])
            totals.pairs_filtered += int(row[K.PAIRS_FILTERED])
            totals.run_time_s += float(row[K.RUN_TIME_S])
        return {
            K.SCHEMA_VERSION_KEY: P.PROTOCOL_VERSION,
            K.DRAINING: self._draining.is_set(),
            K.WORKERS: self.workers,
            K.QUEUE_DEPTH: self.queue_depth,
            K.QUEUED: self._queue.qsize(),
            K.IN_FLIGHT: in_flight,
            K.UPTIME_S: round(time.perf_counter() - self._start_clock, 3),
            K.TOTALS: totals.as_dict(),
            K.CLIENTS: clients,
        }

    # ------------------------------------------------------------------ #
    # Socket helpers
    # ------------------------------------------------------------------ #
    def _respond(
        self, conn: socket.socket, envelope: "dict[str, Any]", close: bool = True
    ) -> None:
        """Best-effort single-frame response (a vanished client is not an
        error worth tearing the server down for)."""
        try:
            conn.sendall(P.encode_frame(envelope))
        except OSError:
            pass
        finally:
            if close:
                self._close(conn)

    @staticmethod
    def _close(conn: socket.socket) -> None:
        try:
            conn.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
