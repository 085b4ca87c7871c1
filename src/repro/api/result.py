"""The one versioned report schema every front end emits.

:class:`Result` carries one canonical key set for every run — filtering or
mapping, in memory or streamed — plus ``schema_version`` so downstream
consumers can detect format changes, and keeps per-stage cascade accounting,
streaming extras and per-chunk rows as structured sections.

The canonical key spellings live once, in :mod:`repro._schema`; every summary
this module builds uses those constants (the ``result-schema-keys`` lint rule
refuses string literals here).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from .. import _schema as K

if TYPE_CHECKING:
    from ..mapper.mrfast import MappingRunResult
    from .workload import Workload

__all__ = ["SCHEMA_VERSION", "Result", "stage_rows"]

#: Version of the canonical report schema.  Bump on any key change.
SCHEMA_VERSION = 1


def _json_safe(value: Any) -> Any:
    """Map non-finite floats to None so dumps stay strict RFC-8259 JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def stage_rows(workload: "Workload", accounts: Sequence[Any]) -> list[dict[str, Any]]:
    """The ``stages`` section of a filtering Result from its stage accounts.

    A cascade reports one row per stage it reached.  A single filter is a
    one-stage cascade whose one row would repeat the summary, so it reports
    none.
    """
    if not workload.filter.is_cascade:
        return []
    return [account.summary() for account in accounts]


@dataclass
class Result:
    """Canonical, versioned outcome of one :class:`~repro.api.Workload` run.

    Attributes
    ----------
    kind:
        ``"filter"`` (pair filtering + verification) or ``"mapping"``
        (whole-genome mapping rows).
    workload:
        The fully-resolved canonical workload dictionary
        (:meth:`Workload.to_dict`), so every report records exactly what ran.
    dataset / filter:
        Run label and filter display name.
    summary:
        Canonical totals; JSON-equal across the in-memory and streaming
        execution modes.
    streaming:
        Chunking/device/overlap extras for streamed runs, else ``None``.
    stages:
        Per-stage cascade accounting (empty list for single filters).
    chunks:
        Leading per-chunk accounting rows (``None`` when not collected).
    rows:
        Table 3 mapping-information rows for ``kind="mapping"`` runs, one
        per mapper run: the NoFilter run, then the filtered run.
    shard:
        Shard provenance for runs whose workload carries an
        ``execution.shard`` slice (:mod:`repro.cluster`): index, slice
        bounds, totals and — for streamed shards — the per-chunk per-device
        timing triples ``repro merge`` replays.  ``None`` (and absent from
        :meth:`as_dict`) on unsharded and merged results.
    raw:
        The underlying report for programmatic consumers, never serialised:
        a filtering run's ``StreamingReport`` (in both execution modes), or
        a mapping run's list of
        :class:`~repro.mapper.mrfast.MappingRunResult` (NoFilter first).
    wall_clock_s:
        Measured wall-clock of the run; excluded from :meth:`as_dict` so the
        serialised report is byte-reproducible.
    kernel_tier:
        The kernel tier that actually ran (``"native"`` or ``"numpy"``), when
        the run went through a filter engine; ``None`` otherwise.  Excluded
        from :meth:`as_dict` — like the execution backend, the tier never
        changes a result, so serialised reports stay byte-identical across
        tiers.
    """

    kind: str
    workload: dict[str, Any]
    dataset: str
    filter: str
    summary: dict[str, Any]
    streaming: dict[str, Any] | None = None
    stages: list[dict[str, Any]] = field(default_factory=list)
    chunks: list[dict[str, Any]] | None = None
    rows: list[dict[str, Any]] | None = None
    shard: dict[str, Any] | None = None
    raw: Any = None
    wall_clock_s: float = 0.0
    kernel_tier: str | None = None
    schema_version: int = SCHEMA_VERSION

    @property
    def plan(self) -> dict[str, Any] | None:
        """The planner's frozen plan record, when this run was planned.

        Plans live inside the recorded workload (``workload.filter.plan``) —
        the workload *is* the resolved spec, so a planned run's provenance
        travels with the same dictionary every shard and merge validates.
        """
        filter_section = self.workload.get("filter") or {}
        record = filter_section.get(K.PLAN)
        return dict(record) if isinstance(record, dict) else None

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def as_dict(self) -> dict[str, Any]:
        """JSON-ready canonical view (deterministic for a deterministic run)."""
        out: dict[str, Any] = {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "dataset": self.dataset,
            "filter": self.filter,
            "workload": self.workload,
            "summary": dict(self.summary),
            "streaming": self.streaming,
            "stages": self.stages,
        }
        if self.chunks is not None:
            out["chunks"] = self.chunks
        if self.rows is not None:
            out["rows"] = self.rows
        # Shard provenance is emitted only on per-shard results, so an
        # unsharded run and a merged run stay byte-identical.
        if self.shard is not None:
            out[K.SHARD] = self.shard
        safe: dict[str, Any] = _json_safe(out)
        return safe

    def to_json(self, indent: int = 2) -> str:
        """The canonical JSON serialisation (sorted keys, trailing newline)."""
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True) + "\n"

    # ------------------------------------------------------------------ #
    # Builders
    # ------------------------------------------------------------------ #
    @classmethod
    def from_report(
        cls,
        report: Any,
        workload: "Workload",
        filter_name: str,
    ) -> "Result":
        """Build from a :class:`~repro.runtime.streaming.StreamingReport`.

        One builder for both execution modes: the mode only decides whether
        the streaming and per-chunk sections are present.
        """
        n_pairs, n_accepted = report.n_pairs, report.n_accepted
        n_rejected = n_pairs - n_accepted
        kernel_s = report.timing.kernel_s
        denominator = kernel_s + report.verification_time_s
        summary = {
            K.ERROR_THRESHOLD: workload.filter.error_threshold,
            K.READ_LENGTH: report.read_length,
            K.N_PAIRS: n_pairs,
            K.N_ACCEPTED: n_accepted,
            K.N_REJECTED: n_rejected,
            K.N_UNDEFINED: report.n_undefined,
            K.REDUCTION_PCT: round(100.0 * (n_rejected / n_pairs if n_pairs else 0.0), 2),
            K.KERNEL_TIME_S: kernel_s,
            K.FILTER_TIME_S: report.timing.filter_s,
            K.VERIFICATION_TIME_S: report.verification_time_s,
            K.NO_FILTER_VERIFICATION_TIME_S: report.no_filter_verification_time_s,
            K.VERIFICATION_SPEEDUP: round(
                report.no_filter_verification_time_s / denominator
                if denominator
                else float("inf"),
                3,
            ),
            K.THEORETICAL_SPEEDUP: round(
                n_pairs / n_accepted if n_accepted else float("inf"), 3
            ),
            K.VERIFIED_ACCEPTS: report.verified_accepts,
            K.VERIFIED_REJECTS: report.verified_rejects,
        }
        streaming: dict[str, Any] | None = None
        chunks: list[dict[str, Any]] | None = None
        if workload.resolved_mode() == "streaming":
            overlapped = report.overlapped_time_s
            streaming = {
                K.CHUNK_SIZE: workload.execution.chunk_size,
                K.N_CHUNKS: report.n_chunks,
                K.N_BATCHES: report.n_batches,
                K.N_DEVICES: workload.execution.n_devices,
                K.SERIAL_TIME_S: report.serial_time_s,
                K.OVERLAPPED_TIME_S: overlapped,
                K.OVERLAP_SPEEDUP: round(
                    report.serial_time_s / overlapped if overlapped else 1.0, 3
                ),
            }
            if workload.output.include_chunks:
                chunks = [chunk.summary() for chunk in report.chunks]
        return cls(
            kind="filter",
            workload=workload.to_dict(),
            dataset=report.dataset_name,
            filter=filter_name,
            summary=summary,
            streaming=streaming,
            stages=stage_rows(workload, report.stage_accounts),
            chunks=chunks,
            raw=report,
            wall_clock_s=report.wall_clock_s,
        )

    @classmethod
    def from_mapping_runs(
        cls, runs: "Sequence[MappingRunResult]", workload: "Workload"
    ) -> "Result":
        """Build from the mapper runs of a ``mapping`` workload.

        ``runs`` holds the unfiltered run, then, with ``input.prefilter``,
        the filtered one.  Each run is one Table 3 row; the summary describes
        the last run.
        """
        error_threshold = workload.filter.error_threshold
        rows = [
            {
                K.MRFAST_WITH: run.filter_name,
                K.ERROR_THRESHOLD: error_threshold,
                K.MAPPINGS: run.stats.mappings,
                K.MAPPED_READS: run.stats.mapped_reads,
                K.CANDIDATE_PAIRS: run.stats.candidate_pairs,
                K.VERIFICATION_PAIRS: run.stats.verification_pairs,
                K.REJECTED_PAIRS: run.stats.rejected_pairs,
                K.REDUCTION_PCT: round(100.0 * run.stats.reduction, 1),
            }
            for run in runs
        ]
        stats = runs[-1].stats
        summary = {
            K.ERROR_THRESHOLD: error_threshold,
            K.READ_LENGTH: workload.input.read_length,
            K.N_PAIRS: stats.candidate_pairs,
            K.N_ACCEPTED: stats.verification_pairs,
            K.N_REJECTED: stats.rejected_pairs,
            K.N_UNDEFINED: stats.undefined_pairs,
            K.REDUCTION_PCT: round(100.0 * stats.reduction, 2),
            K.MAPPINGS: stats.mappings,
            K.MAPPED_READS: stats.mapped_reads,
            K.N_READS: stats.n_reads,
        }
        return cls(
            kind="mapping",
            workload=workload.to_dict(),
            dataset=workload.input.display_name(),
            filter=runs[-1].filter_name,
            summary=summary,
            rows=rows,
            raw=list(runs),
            wall_clock_s=sum(run.times.wall_clock_s for run in runs),
        )
