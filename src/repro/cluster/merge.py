"""Deterministic shard-merge: per-shard Results -> the single-run Result.

:func:`merge_result_dicts` reduces the :class:`~repro.api.result.Result`
JSON of every shard of one :class:`~repro.cluster.plan.ShardPlan` into a
Result whose serialisation is **byte-identical** to running the original
(unsharded) workload on one node.  The discipline is the repo's
totals-based reduction (:mod:`repro.exec.reduce`):

* integer counts (pairs, accepts, rejects, undefined, verified outcomes,
  chunks, batches, per-stage inputs) are summed exactly;
* modelled times are **recomputed** by evaluating the analytic model once on
  the merged totals — exactly the calls the single-node path makes — never
  by summing per-shard float subtotals (float addition is not associative);
* the stream-overlap model is **replayed** from the per-chunk per-device
  timing triples each streamed shard records (``shard.chunk_device_timings``),
  accumulated in the exact chunk order of the single run — shard plans are
  chunk-aligned, so shard chunks *are* the single run's chunks.

Every malformed input is a typed error naming the offending file and field:
:class:`ShardFileError` (one file is unreadable / not a shard result),
:class:`ShardMismatchError` (shards disagree on schema, workload or labels)
or :class:`ShardSetError` (duplicates, missing shards, a non-tiling slice
set).  All are ``ValueError`` subclasses per the workload error convention.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from .. import _schema as K
from ..api.result import SCHEMA_VERSION, Result
from ..api.session import Session
from ..api.workload import ShardSpec, Workload
from ..exec.reduce import (
    modelled_verification_times,
    reduce_totals,
    stream_overlap_times,
)
from .errors import ShardFileError, ShardMismatchError, ShardSetError

__all__ = ["load_shard_result", "merge_result_dicts", "merge_files"]

#: Summary counters that sum exactly across shards.
_INT_SUM_KEYS = (
    K.N_PAIRS,
    K.N_ACCEPTED,
    K.N_REJECTED,
    K.N_UNDEFINED,
    K.VERIFIED_ACCEPTS,
    K.VERIFIED_REJECTS,
)


@dataclass(frozen=True)
class _ShardResult:
    """One validated per-shard result, ready for reduction."""

    label: str
    shard: "dict[str, Any]"
    spec: ShardSpec
    workload: "dict[str, Any]"  # canonical dict with execution.shard stripped
    summary: "dict[str, Any]"
    streaming: "dict[str, Any] | None"
    stages: "list[dict[str, Any]]"
    chunks: "list[dict[str, Any]] | None"
    dataset: str
    filter: str


def _strip_shard(workload: Mapping[str, Any]) -> "dict[str, Any]":
    """The workload dict with ``execution.shard`` removed (the single-run spec)."""
    data: "dict[str, Any]" = json.loads(json.dumps(workload))
    execution = data.get("execution")
    if isinstance(execution, dict):
        execution.pop(K.SHARD, None)
    return data


def _first_diff(a: Any, b: Any, path: str) -> "str | None":
    """Dotted path of the first difference between two JSON values, else None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}.{key}"
            sub = _first_diff(a[key], b[key], f"{path}.{key}")
            if sub is not None:
                return sub
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return path
        for index, (x, y) in enumerate(zip(a, b)):
            sub = _first_diff(x, y, f"{path}[{index}]")
            if sub is not None:
                return sub
        return None
    return None if a == b else path


def _validate_shard(label: str, data: Any) -> _ShardResult:
    """Check one result dict is a well-formed shard result; typed errors."""
    if not isinstance(data, dict):
        raise ShardFileError(f"{label}: expected a JSON object, got {type(data).__name__}")
    version = data.get(K.SCHEMA_VERSION_KEY)
    if version != SCHEMA_VERSION:
        raise ShardMismatchError(
            f"{label}: schema_version {version!r} is not the supported "
            f"version {SCHEMA_VERSION}"
        )
    kind = data.get("kind")
    if kind != "filter":
        raise ShardFileError(f"{label}: cannot merge results of kind {kind!r}")
    shard = data.get(K.SHARD)
    if not isinstance(shard, dict):
        raise ShardFileError(
            f"{label}: not a shard result (missing '{K.SHARD}' section); "
            f"merge inputs must come from `repro run` on shard workload files"
        )
    try:
        spec = ShardSpec(
            index=shard[K.SHARD_INDEX],
            n_shards=shard[K.N_SHARDS],
            start=shard[K.SHARD_START],
            stop=shard[K.SHARD_STOP],
            total=shard[K.SHARD_TOTAL],
        )
    except KeyError as exc:
        raise ShardFileError(f"{label}: shard section is missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ShardFileError(f"{label}: invalid shard section: {exc}") from exc
    workload = data.get("workload")
    if not isinstance(workload, dict):
        raise ShardFileError(f"{label}: missing the 'workload' section")
    summary = data.get("summary")
    if not isinstance(summary, dict):
        raise ShardFileError(f"{label}: missing the 'summary' section")
    for key in _INT_SUM_KEYS + (K.ERROR_THRESHOLD, K.READ_LENGTH):
        if not isinstance(summary.get(key), int):
            raise ShardFileError(
                f"{label}: summary.{key}: expected an integer, got {summary.get(key)!r}"
            )
    streaming = data.get("streaming")
    if streaming is not None:
        if not isinstance(streaming, dict):
            raise ShardFileError(f"{label}: 'streaming' section must be an object")
        for key in (K.CHUNK_SIZE, K.N_CHUNKS, K.N_BATCHES, K.N_DEVICES):
            if not isinstance(streaming.get(key), int):
                raise ShardFileError(
                    f"{label}: streaming.{key}: expected an integer, "
                    f"got {streaming.get(key)!r}"
                )
        if not isinstance(shard.get(K.CHUNK_DEVICE_TIMINGS), list):
            raise ShardFileError(
                f"{label}: shard.{K.CHUNK_DEVICE_TIMINGS} is missing; streamed "
                f"shard results must record their per-chunk device timings"
            )
    return _ShardResult(
        label=label,
        shard=shard,
        spec=spec,
        workload=_strip_shard(workload),
        summary=summary,
        streaming=streaming,
        stages=list(data.get("stages") or []),
        chunks=data.get("chunks"),
        dataset=str(data.get("dataset", "")),
        filter=str(data.get("filter", "")),
    )


def _check_shard_set(shards: "list[_ShardResult]") -> "list[_ShardResult]":
    """Cross-shard validation: one plan, complete, duplicate-free, tiling."""
    first = shards[0]
    for shard in shards[1:]:
        if shard.spec.n_shards != first.spec.n_shards:
            raise ShardMismatchError(
                f"shard.n_shards: {first.label} says {first.spec.n_shards} but "
                f"{shard.label} says {shard.spec.n_shards}; the results come "
                f"from different shard plans"
            )
        if shard.spec.total != first.spec.total:
            raise ShardMismatchError(
                f"shard.total: {first.label} says {first.spec.total} but "
                f"{shard.label} says {shard.spec.total}"
            )
        diff = _first_diff(first.workload, shard.workload, "workload")
        if diff is not None:
            if diff.startswith("workload.filter.plan"):
                # A planner-record divergence means the shards were planned
                # separately — the exact failure mode pinning exists to
                # prevent; name it rather than reporting a generic spec diff.
                raise ShardMismatchError(
                    f"{diff}: shard planner records disagree ({first.label} vs "
                    f"{shard.label}); 'auto' workloads must be resolved once "
                    f"by `repro shard` / plan_shards, never per shard"
                )
            raise ShardMismatchError(
                f"{diff}: shard workloads disagree ({first.label} vs {shard.label}); "
                f"every shard must run the same spec"
            )
        for key in (K.ERROR_THRESHOLD, K.READ_LENGTH):
            if shard.summary[key] != first.summary[key]:
                raise ShardMismatchError(
                    f"summary.{key}: {first.label} says {first.summary[key]} "
                    f"but {shard.label} says {shard.summary[key]}"
                )
        for field_name, a, b in (
            ("dataset", first.dataset, shard.dataset),
            ("filter", first.filter, shard.filter),
        ):
            if a != b:
                raise ShardMismatchError(
                    f"{field_name}: {first.label} says {a!r} but {shard.label} says {b!r}"
                )
        if (shard.streaming is None) != (first.streaming is None):
            raise ShardMismatchError(
                f"streaming: {first.label} and {shard.label} resolved to "
                f"different execution modes"
            )

    by_index: "dict[int, _ShardResult]" = {}
    for shard in shards:
        other = by_index.get(shard.spec.index)
        if other is not None:
            raise ShardSetError(
                f"shard.index: duplicate shard {shard.spec.index} "
                f"({other.label} and {shard.label})"
            )
        by_index[shard.spec.index] = shard
    missing = sorted(set(range(first.spec.n_shards)) - set(by_index))
    if missing:
        raise ShardSetError(
            f"shard set is incomplete: missing {len(missing)} of "
            f"{first.spec.n_shards} shard(s), indexes {missing}"
        )

    ordered = [by_index[index] for index in range(first.spec.n_shards)]
    cursor = 0
    for shard in ordered:
        if shard.spec.start != cursor:
            raise ShardSetError(
                f"{shard.label}: shard {shard.spec.index} starts at "
                f"{shard.spec.start} but the previous shard ended at {cursor}; "
                f"slices must tile [0, {first.spec.total})"
            )
        if shard.summary[K.N_PAIRS] != shard.spec.n_pairs:
            raise ShardSetError(
                f"{shard.label}: summary.n_pairs {shard.summary[K.N_PAIRS]} does "
                f"not match the shard slice [{shard.spec.start}, {shard.spec.stop})"
            )
        cursor = shard.spec.stop
    if cursor != first.spec.total:
        raise ShardSetError(
            f"shard slices cover [0, {cursor}) but the plan total is {first.spec.total}"
        )
    return ordered


def _merged_chunks(
    ordered: "list[_ShardResult]", workload: Workload
) -> "list[dict[str, Any]] | None":
    """Concatenate per-shard chunk rows in single-run chunk order.

    Shard plans are chunk-aligned, so shard ``i``'s chunks are exactly the
    single run's chunks starting at the sum of the earlier shards' chunk
    counts; renumbering by that offset and truncating to ``max_chunk_rows``
    reproduces the single run's leading rows (every shard keeps at least its
    first ``max_chunk_rows`` rows, which is all the global head can need).
    """
    if not workload.output.include_chunks:
        return None
    rows: "list[dict[str, Any]]" = []
    offset = 0
    for shard in ordered:
        for row in shard.chunks or []:
            renumbered = dict(row)
            renumbered["chunk"] = int(row["chunk"]) + offset
            rows.append(renumbered)
        offset += int(shard.streaming[K.N_CHUNKS]) if shard.streaming else 0
    if workload.output.max_chunk_rows > 0:
        rows = rows[: workload.output.max_chunk_rows]
    return rows


def merge_result_dicts(
    results: "Sequence[tuple[str, Any]]", session: "Session | None" = None
) -> Result:
    """Merge per-shard Result dicts into the single-run :class:`Result`.

    ``results`` is a sequence of ``(label, result_dict)`` pairs; labels (file
    names) appear in every error message.  The returned Result's
    :meth:`~repro.api.result.Result.to_json` is byte-identical to the
    unsharded run of the same workload.
    """
    if not results:
        raise ShardSetError("no shard results to merge")
    ordered = _check_shard_set(
        [_validate_shard(label, data) for label, data in results]
    )
    first = ordered[0]
    session = session or Session()
    workload = Workload.from_dict(first.workload)
    read_length = int(first.summary[K.READ_LENGTH])
    error_threshold = int(first.summary[K.ERROR_THRESHOLD])
    engine = session.engine_for(workload, read_length)

    totals = {key: 0 for key in _INT_SUM_KEYS}
    for shard in ordered:
        for key in _INT_SUM_KEYS:
            totals[key] += int(shard.summary[key])
    n_pairs = totals[K.N_PAIRS]
    n_accepted = totals[K.N_ACCEPTED]
    n_rejected = totals[K.N_REJECTED]

    # Per-stage input totals drive both the composite timing and the stage
    # rows, exactly as in the single run.
    stage_inputs: "dict[int, int]" = {}
    for shard in ordered:
        for row in shard.stages:
            index = int(row[K.STAGE])
            stage_inputs[index] = stage_inputs.get(index, 0) + int(row[K.N_INPUT])
    accounts, timing, _ = reduce_totals(engine, n_pairs, stage_inputs, n_accepted)
    stages = [account.summary() for account in accounts]

    verification_time, no_filter_time = modelled_verification_times(
        n_accepted, n_pairs, read_length, session.verification_cost_per_pair_s
    )
    denominator = timing.kernel_s + verification_time
    summary = {
        K.ERROR_THRESHOLD: error_threshold,
        K.READ_LENGTH: read_length,
        K.N_PAIRS: n_pairs,
        K.N_ACCEPTED: n_accepted,
        K.N_REJECTED: n_rejected,
        K.N_UNDEFINED: totals[K.N_UNDEFINED],
        K.REDUCTION_PCT: round(
            100.0 * (n_rejected / n_pairs if n_pairs else 0.0), 2
        ),
        K.KERNEL_TIME_S: timing.kernel_s,
        K.FILTER_TIME_S: timing.filter_s,
        K.VERIFICATION_TIME_S: verification_time,
        K.NO_FILTER_VERIFICATION_TIME_S: no_filter_time,
        K.VERIFICATION_SPEEDUP: round(
            no_filter_time / denominator if denominator else float("inf"), 3
        ),
        K.THEORETICAL_SPEEDUP: round(
            n_pairs / n_accepted if n_accepted else float("inf"), 3
        ),
        K.VERIFIED_ACCEPTS: totals[K.VERIFIED_ACCEPTS],
        K.VERIFIED_REJECTS: totals[K.VERIFIED_REJECTS],
    }

    streaming = None
    chunks = None
    if first.streaming is not None:
        n_devices = int(first.streaming[K.N_DEVICES])
        n_chunks = 0
        n_batches = 0
        device_transfer = [0.0] * n_devices
        device_kernel = [0.0] * n_devices
        host_time = 0.0
        # Replay the stream-overlap accumulation in exact single-run chunk
        # order: shard plans are chunk-aligned and shards are visited in
        # index order, so concatenating each shard's recorded per-chunk
        # per-device triples *is* the single run's chunk sequence.  The
        # triples are serialised floats, and JSON round-trips floats exactly,
        # so this accumulation is bit-for-bit the single run's.
        for shard in ordered:
            assert shard.streaming is not None
            n_chunks += int(shard.streaming[K.N_CHUNKS])
            n_batches += int(shard.streaming[K.N_BATCHES])
            for chunk in shard.shard[K.CHUNK_DEVICE_TIMINGS]:
                for device_index, (transfer_s, kernel_s, host_s) in enumerate(chunk):
                    device_transfer[device_index] += transfer_s  # reprolint: disable=partition-invariant-reduction
                    device_kernel[device_index] += kernel_s
                    host_time += host_s  # reprolint: disable=partition-invariant-reduction
        serial_time, overlapped_time = stream_overlap_times(
            device_transfer, device_kernel, host_time, n_devices
        )
        streaming = {
            K.CHUNK_SIZE: int(first.streaming[K.CHUNK_SIZE]),
            K.N_CHUNKS: n_chunks,
            K.N_BATCHES: n_batches,
            K.N_DEVICES: n_devices,
            K.SERIAL_TIME_S: serial_time,
            K.OVERLAPPED_TIME_S: overlapped_time,
            K.OVERLAP_SPEEDUP: round(
                serial_time / overlapped_time if overlapped_time else 1.0, 3
            ),
        }
        chunks = _merged_chunks(ordered, workload)

    return Result(
        kind="filter",
        workload=first.workload,
        dataset=first.dataset,
        filter=first.filter,
        summary=summary,
        streaming=streaming,
        stages=stages,
        chunks=chunks,
        shard=None,
    )


def load_shard_result(path: "str | Path") -> "dict[str, Any]":
    """Read one shard result file; :class:`ShardFileError` on any I/O or parse failure."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ShardFileError(f"{path}: cannot read shard result: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ShardFileError(
            f"{path}: invalid JSON (truncated or corrupt shard result?): {exc}"
        ) from exc
    if not isinstance(data, dict):
        raise ShardFileError(
            f"{path}: expected a JSON object, got {type(data).__name__}"
        )
    return data


def merge_files(
    paths: "Sequence[str | Path]",
    manifest: "str | Path | None" = None,
    session: "Session | None" = None,
) -> Result:
    """Load and merge shard result files (optionally checked against a manifest).

    With ``manifest`` given (the plan's ``manifest.json``), the shard set is
    first checked for completeness against the plan, so a missing shard is
    reported by its *expected* result path rather than as a bare index.
    """
    loaded = [(str(path), load_shard_result(path)) for path in paths]
    if manifest is not None:
        manifest_path = Path(manifest)
        plan = load_shard_result(manifest_path)
        if plan.get("kind") != "repro-shard-manifest":
            raise ShardFileError(
                f"{manifest_path}: not a shard manifest (kind is {plan.get('kind')!r})"
            )
        found = {
            data[K.SHARD][K.SHARD_INDEX]
            for _, data in loaded
            if isinstance(data.get(K.SHARD), dict)
        }
        missing = [
            str(entry.get("result", f"shard {entry.get('index')}"))
            for entry in plan.get("shards", [])
            if entry.get("index") not in found
        ]
        if missing:
            raise ShardSetError(
                f"{manifest_path}: shard set is incomplete; missing result "
                f"file(s): {', '.join(missing)}"
            )
    return merge_result_dicts(loaded, session=session)
