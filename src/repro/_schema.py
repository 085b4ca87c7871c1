"""Single source of truth for the canonical report-schema key spellings.

Every key the versioned :class:`repro.api.Result` schema emits — summary
totals, cascade stage rows, streaming extras — is spelled exactly once, here.
The producers (:mod:`repro.api.result`, :meth:`repro.api.Session` stage rows,
:class:`repro.engine.cascade.CascadeStageAccount`) build their dictionaries
from these constants instead of string literals, so a typo'd or drifting key
is an import error or a linter finding, never a silently-forked schema.

The ``result-schema-keys`` rule of :mod:`repro.analysis.lint` machine-checks
this: inside ``repro.api`` and ``repro.engine`` the keys listed in
:data:`LINT_ENFORCED_KEYS` may not appear as string-literal dictionary keys.

Like :mod:`repro._defaults`, this private module sits below every package in
the layering (its public face is the :mod:`repro.api` schema) and must not
import from ``repro``.
"""

from __future__ import annotations

# --------------------------------------------------------------------------- #
# Summary section (canonical totals of a filtering / mapping run)
# --------------------------------------------------------------------------- #
ERROR_THRESHOLD = "error_threshold"
READ_LENGTH = "read_length"
N_PAIRS = "n_pairs"
N_ACCEPTED = "n_accepted"
N_REJECTED = "n_rejected"
N_UNDEFINED = "n_undefined"
REDUCTION_PCT = "reduction_pct"
KERNEL_TIME_S = "kernel_time_s"
FILTER_TIME_S = "filter_time_s"
VERIFICATION_TIME_S = "verification_time_s"
NO_FILTER_VERIFICATION_TIME_S = "no_filter_verification_time_s"
VERIFICATION_SPEEDUP = "verification_speedup"
THEORETICAL_SPEEDUP = "theoretical_speedup"
VERIFIED_ACCEPTS = "verified_accepts"
VERIFIED_REJECTS = "verified_rejects"
# Mapping-run extras
MAPPINGS = "mappings"
MAPPED_READS = "mapped_reads"
N_READS = "n_reads"

#: Every key a canonical ``summary`` section may carry.
SUMMARY_KEYS = frozenset({
    ERROR_THRESHOLD,
    READ_LENGTH,
    N_PAIRS,
    N_ACCEPTED,
    N_REJECTED,
    N_UNDEFINED,
    REDUCTION_PCT,
    KERNEL_TIME_S,
    FILTER_TIME_S,
    VERIFICATION_TIME_S,
    NO_FILTER_VERIFICATION_TIME_S,
    VERIFICATION_SPEEDUP,
    THEORETICAL_SPEEDUP,
    VERIFIED_ACCEPTS,
    VERIFIED_REJECTS,
    MAPPINGS,
    MAPPED_READS,
    N_READS,
})

# --------------------------------------------------------------------------- #
# Cascade stage rows
# --------------------------------------------------------------------------- #
STAGE = "stage"
FILTER = "filter"
N_INPUT = "n_input"
#: Measured wall clock: never part of a canonical row (lint-enforced below).
WALL_CLOCK_S = "wall_clock_s"

#: Keys of one cascade stage accounting row.
STAGE_KEYS = frozenset({
    STAGE,
    FILTER,
    N_INPUT,
    N_ACCEPTED,
    N_REJECTED,
    KERNEL_TIME_S,
    FILTER_TIME_S,
})

# --------------------------------------------------------------------------- #
# Streaming extras
# --------------------------------------------------------------------------- #
CHUNK_SIZE = "chunk_size"
N_CHUNKS = "n_chunks"
N_BATCHES = "n_batches"
N_DEVICES = "n_devices"
SERIAL_TIME_S = "serial_time_s"
OVERLAPPED_TIME_S = "overlapped_time_s"
OVERLAP_SPEEDUP = "overlap_speedup"

#: Keys of the ``streaming`` section of a streamed run's result.
STREAMING_KEYS = frozenset({
    CHUNK_SIZE,
    N_CHUNKS,
    N_BATCHES,
    N_DEVICES,
    SERIAL_TIME_S,
    OVERLAPPED_TIME_S,
    OVERLAP_SPEEDUP,
})

# --------------------------------------------------------------------------- #
# Shard section (repro.cluster: per-shard provenance on a sharded Result)
# --------------------------------------------------------------------------- #
SHARD = "shard"
SHARD_INDEX = "index"
N_SHARDS = "n_shards"
SHARD_START = "start"
SHARD_STOP = "stop"
SHARD_TOTAL = "total"
#: Per-chunk, per-device ``[transfer_s, kernel_s, host_s]`` triples recorded
#: by a sharded streaming run so ``repro merge`` can replay the stream-overlap
#: model in the exact single-run accumulation order (float addition is not
#: associative; replaying beats re-deriving).
CHUNK_DEVICE_TIMINGS = "chunk_device_timings"

#: Keys of the ``shard`` section carried by a per-shard Result.
SHARD_KEYS = frozenset({
    SHARD_INDEX,
    N_SHARDS,
    SHARD_START,
    SHARD_STOP,
    SHARD_TOTAL,
    CHUNK_DEVICE_TIMINGS,
})

# --------------------------------------------------------------------------- #
# Plan section (repro.planner: the frozen plan pinned into an ``auto`` run)
# --------------------------------------------------------------------------- #
PLAN = "plan"
PLANNER_VERSION = "planner_version"
CASCADE = "cascade"
PROBE_PAIRS = "probe_pairs"
PROBE_COST_S = "probe_cost_s"
EST_COST_S = "est_cost_s"
EST_ACCEPTS = "est_accepts"
PROBE_ACCEPTS = "probe_accepts"
CHOSEN = "chosen"
ADMISSIBLE = "admissible"
# [filter.planner] knob spellings (spec vocabulary, shared with workload.toml)
SAMPLE_PAIRS = "sample_pairs"
FALSE_ACCEPT_BUDGET = "false_accept_budget"
MAX_STAGES = "max_stages"
CANDIDATES = "candidates"

#: Keys of the frozen ``filter.plan`` record a resolved ``auto`` workload
#: carries (and of the candidate rows inside it).
PLAN_KEYS = frozenset({
    PLANNER_VERSION,
    CASCADE,
    PROBE_PAIRS,
    PROBE_COST_S,
    EST_COST_S,
    EST_ACCEPTS,
    PROBE_ACCEPTS,
    CHOSEN,
    ADMISSIBLE,
    SAMPLE_PAIRS,
    FALSE_ACCEPT_BUDGET,
    MAX_STAGES,
    CANDIDATES,
})

# --------------------------------------------------------------------------- #
# Serve protocol envelope (repro.serve request/response wire format)
# --------------------------------------------------------------------------- #
SCHEMA_VERSION_KEY = "schema_version"
OP = "op"
OK = "ok"
ERROR = "error"
ERROR_CODE = "code"
ERROR_MESSAGE = "message"
RESULT = "result"
CLIENT = "client"
WORKLOAD = "workload"
STATUS = "status"
# status payload / per-client accounting
REQUESTS = "requests"
COMPLETED = "completed"
REJECTED = "rejected"
FAILED = "failed"
PAIRS_FILTERED = "pairs_filtered"
RUN_TIME_S = "run_time_s"
QUEUE_DEPTH = "queue_depth"
QUEUED = "queued"
IN_FLIGHT = "in_flight"
WORKERS = "workers"
DRAINING = "draining"
UPTIME_S = "uptime_s"
CLIENTS = "clients"
TOTALS = "totals"

#: Every key a serve request/response envelope (or its status payload) carries.
SERVE_KEYS = frozenset({
    SCHEMA_VERSION_KEY,
    OP,
    OK,
    ERROR,
    ERROR_CODE,
    ERROR_MESSAGE,
    RESULT,
    CLIENT,
    WORKLOAD,
    STATUS,
    REQUESTS,
    COMPLETED,
    REJECTED,
    FAILED,
    PAIRS_FILTERED,
    RUN_TIME_S,
    QUEUE_DEPTH,
    QUEUED,
    IN_FLIGHT,
    WORKERS,
    DRAINING,
    UPTIME_S,
    CLIENTS,
    TOTALS,
})

#: Envelope spellings the ``result-schema-keys`` rule additionally refuses as
#: string-literal dict keys inside ``repro.serve`` (on top of
#: :data:`LINT_ENFORCED_KEYS`).  ``workload`` stays writable as a literal —
#: it doubles as declarative workload-spec vocabulary.
SERVE_ENFORCED_KEYS = frozenset({
    SCHEMA_VERSION_KEY,
    OP,
    OK,
    ERROR,
    ERROR_CODE,
    ERROR_MESSAGE,
    RESULT,
    CLIENT,
    STATUS,
    REQUESTS,
    COMPLETED,
    REJECTED,
    FAILED,
    PAIRS_FILTERED,
    RUN_TIME_S,
    QUEUE_DEPTH,
    QUEUED,
    IN_FLIGHT,
    WORKERS,
    DRAINING,
    UPTIME_S,
    CLIENTS,
    TOTALS,
})

#: Spellings the ``result-schema-keys`` lint rule refuses as string-literal
#: dictionary keys inside ``repro.api`` / ``repro.engine``.  Deliberately the
#: *unambiguous* subset: keys that double as workload-spec field names
#: (``n_pairs``, ``error_threshold``, ``read_length``, ``chunk_size``,
#: ``n_devices``, ``seed``, ...) are excluded so declarative workload
#: dictionaries stay writable as plain literals.
LINT_ENFORCED_KEYS = frozenset({
    N_ACCEPTED,
    N_REJECTED,
    N_UNDEFINED,
    REDUCTION_PCT,
    KERNEL_TIME_S,
    FILTER_TIME_S,
    VERIFICATION_TIME_S,
    NO_FILTER_VERIFICATION_TIME_S,
    VERIFICATION_SPEEDUP,
    THEORETICAL_SPEEDUP,
    VERIFIED_ACCEPTS,
    VERIFIED_REJECTS,
    MAPPINGS,
    MAPPED_READS,
    N_INPUT,
    WALL_CLOCK_S,
    SERIAL_TIME_S,
    OVERLAPPED_TIME_S,
    OVERLAP_SPEEDUP,
    N_CHUNKS,
    # Plan-record keys with a single unambiguous meaning.  The spec-vocabulary
    # spellings (``plan``, ``cascade``, ``sample_pairs``, ``false_accept_budget``,
    # ``max_stages``, ``candidates``) stay writable as plain literals, like
    # ``shard`` / ``n_pairs`` above.
    PLANNER_VERSION,
    PROBE_PAIRS,
    PROBE_COST_S,
    EST_COST_S,
    EST_ACCEPTS,
    PROBE_ACCEPTS,
    CHOSEN,
    ADMISSIBLE,
})

__all__ = [
    "ERROR_THRESHOLD",
    "READ_LENGTH",
    "N_PAIRS",
    "N_ACCEPTED",
    "N_REJECTED",
    "N_UNDEFINED",
    "REDUCTION_PCT",
    "KERNEL_TIME_S",
    "FILTER_TIME_S",
    "VERIFICATION_TIME_S",
    "NO_FILTER_VERIFICATION_TIME_S",
    "VERIFICATION_SPEEDUP",
    "THEORETICAL_SPEEDUP",
    "VERIFIED_ACCEPTS",
    "VERIFIED_REJECTS",
    "MAPPINGS",
    "MAPPED_READS",
    "N_READS",
    "STAGE",
    "FILTER",
    "N_INPUT",
    "WALL_CLOCK_S",
    "CHUNK_SIZE",
    "N_CHUNKS",
    "N_BATCHES",
    "N_DEVICES",
    "SERIAL_TIME_S",
    "OVERLAPPED_TIME_S",
    "OVERLAP_SPEEDUP",
    "SHARD",
    "SHARD_INDEX",
    "N_SHARDS",
    "SHARD_START",
    "SHARD_STOP",
    "SHARD_TOTAL",
    "CHUNK_DEVICE_TIMINGS",
    "SHARD_KEYS",
    "PLAN",
    "PLANNER_VERSION",
    "CASCADE",
    "PROBE_PAIRS",
    "PROBE_COST_S",
    "EST_COST_S",
    "EST_ACCEPTS",
    "PROBE_ACCEPTS",
    "CHOSEN",
    "ADMISSIBLE",
    "SAMPLE_PAIRS",
    "FALSE_ACCEPT_BUDGET",
    "MAX_STAGES",
    "CANDIDATES",
    "PLAN_KEYS",
    "SCHEMA_VERSION_KEY",
    "OP",
    "OK",
    "ERROR",
    "ERROR_CODE",
    "ERROR_MESSAGE",
    "RESULT",
    "CLIENT",
    "WORKLOAD",
    "STATUS",
    "REQUESTS",
    "COMPLETED",
    "REJECTED",
    "FAILED",
    "PAIRS_FILTERED",
    "RUN_TIME_S",
    "QUEUE_DEPTH",
    "QUEUED",
    "IN_FLIGHT",
    "WORKERS",
    "DRAINING",
    "UPTIME_S",
    "CLIENTS",
    "TOTALS",
    "SUMMARY_KEYS",
    "STAGE_KEYS",
    "STREAMING_KEYS",
    "SERVE_KEYS",
    "SERVE_ENFORCED_KEYS",
    "LINT_ENFORCED_KEYS",
]
