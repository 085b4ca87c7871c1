"""Shard planning: split one workload's input range into N shard workloads.

:func:`plan_shards` turns a :class:`~repro.api.workload.Workload` into a
:class:`ShardPlan` — N contiguous, non-empty, half-open input slices, each
expressed as a complete, self-contained workload dictionary that differs
from the original only by its ``execution.shard`` section.  Each shard file
is runnable by the ordinary ``repro run``; ``repro merge``
(:mod:`repro.cluster.merge`) reduces the per-shard results back into the
single-run report, byte-identically.

Planning discipline:

* Shards are **non-empty** (``n_shards`` may not exceed the pair count) and
  **contiguous** — shard ``i`` ends exactly where shard ``i + 1`` begins.
* Streaming shards are **chunk-aligned**: whole chunks are distributed, so
  every shard's chunking (and with it ``n_chunks`` / ``n_batches`` / the
  stream-overlap model) matches the single run's chunking of that slice.
* The workload dictionary is the canonical :meth:`Workload.to_dict` form,
  recorded once in the manifest and repeated in every shard file, so the
  merge can verify all shards ran the same spec.

``kind = "pairs"`` (in-memory pairs) cannot be sharded to files, and
``kind = "mapping"`` has no pair range; both are :class:`ShardPlanError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from ..api.result import SCHEMA_VERSION
from ..api.workload import Workload
from ..gpusim.multi_gpu import split_evenly
from .errors import ShardPlanError
from .jobgen import local_script, shard_stem, slurm_script

if TYPE_CHECKING:
    from ..api.session import Session

__all__ = ["ShardPlan", "count_pairs", "plan_shards", "write_plan"]

#: Subdirectory (under the plan directory) where job scripts put results.
RESULTS_DIR = "out"


def count_pairs(workload: Workload, session: "Session | None" = None) -> int:
    """The total number of candidate pairs the workload's input produces.

    ``dataset`` and ``pairs`` inputs declare their count; file-backed inputs
    are counted by summing the pairs of the encoded blocks ``repro run``
    consumes (deterministic, O(block) memory — but for ``reads`` inputs the
    pass re-seeds every read, so plan once and reuse the plan).  A
    ``session`` lends its cached reference and index; without one, a fresh
    session builds them.
    """
    spec = workload.input
    if spec.kind == "dataset":
        return int(spec.n_pairs)
    if spec.kind == "pairs":
        return len(spec.pairs or ())
    if spec.kind in ("tsv", "reads"):
        if session is None:
            from ..api.session import Session

            session = Session()
        return sum(block.n_pairs for block in session.input_blocks(workload))
    raise ShardPlanError(
        f"workload.input.kind: cannot count pairs of kind {spec.kind!r}"
    )


@dataclass(frozen=True)
class ShardPlan:
    """N self-contained shard workloads over one input range.

    Attributes
    ----------
    workload:
        The canonical (shard-free) workload dictionary all shards share.
    mode:
        The resolved execution mode (``"memory"`` or ``"streaming"``).
    total:
        Total pairs across all shards.
    n_shards:
        Number of shards.
    chunk_size:
        The streaming chunk size (``None`` for in-memory plans).
    slices:
        Per-shard half-open ``(start, stop)`` pair ranges, contiguous and
        covering ``[0, total)``.
    """

    workload: "dict[str, Any]"
    mode: str
    total: int
    n_shards: int
    chunk_size: "int | None"
    slices: "tuple[tuple[int, int], ...]"

    def shard_workload(self, index: int) -> "dict[str, Any]":
        """Shard ``index``'s complete workload dictionary (validated)."""
        start, stop = self.slices[index]
        data: "dict[str, Any]" = json.loads(json.dumps(self.workload))
        data["execution"]["shard"] = {
            "index": index,
            "n_shards": self.n_shards,
            "start": start,
            "stop": stop,
            "total": self.total,
        }
        Workload.from_dict(data)  # every emitted shard file must validate
        return data

    def shard_workloads(self) -> "list[dict[str, Any]]":
        return [self.shard_workload(index) for index in range(self.n_shards)]

    def manifest(self) -> "dict[str, Any]":
        """The plan manifest recorded next to the shard files."""
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "repro-shard-manifest",
            "mode": self.mode,
            "total": self.total,
            "n_shards": self.n_shards,
            "chunk_size": self.chunk_size,
            "workload": json.loads(json.dumps(self.workload)),
            "shards": [
                {
                    "index": index,
                    "start": start,
                    "stop": stop,
                    "workload": f"{shard_stem(index)}.json",
                    "result": f"{RESULTS_DIR}/{shard_stem(index)}.json",
                }
                for index, (start, stop) in enumerate(self.slices)
            ],
        }


def plan_shards(
    workload: "Workload | Mapping[str, Any]",
    n_shards: int,
    session: Any = None,
) -> ShardPlan:
    """Split a workload's input range into ``n_shards`` shard workloads.

    In-memory plans split the pair range nearly evenly; streaming plans
    distribute whole chunks (see the module docstring for why).  Raises
    :class:`ShardPlanError` when the workload cannot be sharded (mapping or
    in-memory-pairs input, an existing ``execution.shard`` section, or more
    shards than pairs/chunks).

    A ``filter = "auto"`` workload is planned **here, once** — the resolved
    cascade (plus its frozen ``filter.plan`` record) is pinned into every
    shard workload file exactly as ``execution.shard`` is, so all shards are
    guaranteed to run the same choice the single-node run makes.  ``session``
    supplies the probe machinery (a throwaway :class:`~repro.api.Session` is
    created when omitted).
    """
    if not isinstance(workload, Workload):
        workload = Workload.from_dict(workload)
    if n_shards < 1:
        raise ShardPlanError("n_shards: must be at least 1")
    if workload.filter.is_auto:
        from ..api.session import Session
        from ..planner import resolve_workload

        if session is None:
            with Session() as own_session:
                workload = resolve_workload(own_session, workload)
        else:
            workload = resolve_workload(session, workload)
    from ..planner.guard import ensure_resolved

    ensure_resolved(workload)
    if workload.execution.shard is not None:
        raise ShardPlanError(
            "workload.execution.shard: the workload is already a shard; "
            "plan from the original (shard-free) workload"
        )
    spec = workload.input
    if spec.kind == "mapping":
        raise ShardPlanError(
            "workload.input.kind: mapping workloads have no pair range to shard"
        )
    if spec.kind == "pairs":
        raise ShardPlanError(
            "workload.input.kind: in-memory 'pairs' inputs cannot be written "
            "to shard files; use a dataset, tsv or reads input"
        )
    total = count_pairs(workload)
    mode = workload.resolved_mode()
    if mode == "streaming":
        chunk_size = int(workload.execution.chunk_size)
        n_chunks = -(-total // chunk_size)
        if n_shards > n_chunks:
            raise ShardPlanError(
                f"n_shards: {n_shards} exceeds the {n_chunks} streaming "
                f"chunk(s) of {total} pairs at chunk_size={chunk_size}; "
                f"streaming shards are chunk-aligned"
            )
        slices = tuple(
            (s.start * chunk_size, min(s.stop * chunk_size, total))
            for s in split_evenly(n_chunks, n_shards)
        )
    else:
        chunk_size = None
        if n_shards > total:
            raise ShardPlanError(
                f"n_shards: {n_shards} exceeds the input's {total} pair(s)"
            )
        slices = tuple((s.start, s.stop) for s in split_evenly(total, n_shards))
    return ShardPlan(
        workload=workload.to_dict(),
        mode=mode,
        total=total,
        n_shards=n_shards,
        chunk_size=chunk_size,
        slices=slices,
    )


def write_plan(
    plan: ShardPlan, out_dir: "str | Path", slurm: bool = False
) -> "dict[str, Any]":
    """Materialise a plan: shard files, manifest, job scripts.

    Writes ``shard-NNN.json`` workload files, ``manifest.json``,
    ``run_local.sh`` (the local virtual-cluster runner) and — with
    ``slurm=True`` — ``submit_slurm.sh`` (a SLURM array submission), plus an
    empty ``out/`` results directory.  Returns the written paths:
    ``{"shards": [...], "manifest": ..., "local_script": ...,
    "slurm_script": ... | None, "results_dir": ...}``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / RESULTS_DIR).mkdir(exist_ok=True)

    shard_paths: "list[Path]" = []
    for index, data in enumerate(plan.shard_workloads()):
        path = out_dir / f"{shard_stem(index)}.json"
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        shard_paths.append(path)

    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(
        json.dumps(plan.manifest(), indent=2, sort_keys=True) + "\n"
    )

    local_path = out_dir / "run_local.sh"
    local_path.write_text(local_script(plan.n_shards))
    local_path.chmod(local_path.stat().st_mode | 0o111)

    slurm_path = None
    if slurm:
        slurm_path = out_dir / "submit_slurm.sh"
        slurm_path.write_text(slurm_script(plan.n_shards))
        slurm_path.chmod(slurm_path.stat().st_mode | 0o111)

    return {
        "shards": shard_paths,
        "manifest": manifest_path,
        "local_script": local_path,
        "slurm_script": slurm_path,
        "results_dir": out_dir / RESULTS_DIR,
    }
