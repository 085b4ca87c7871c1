"""A resident session: build engines once, run any number of workloads.

:class:`Session` is the server-shaped object behind the one front door.  It
owns every piece of constructed state a workload run needs — filter engines
and cascades (keyed by their full configuration), simulated pair datasets
with their cached :class:`~repro.genomics.encoding.EncodedPairBatch`, loaded
reference genomes and their k-mer seeding indexes — and reuses all of it
across :meth:`run` calls, so a long-lived process (a queue worker, an HTTP
service) pays construction cost once and filtration cost per request.

Runs are pure with respect to the cached state: executing a workload never
mutates an engine, a dataset or an index, so two workloads on one session
produce byte-identical :class:`~repro.api.result.Result` JSON to two fresh
sessions (locked down by ``tests/test_api_session.py``).

The session is also **thread-safe**: cache construction is serialised behind
one lock (concurrent first requests for the same engine/dataset build it
once), while :meth:`run` itself takes no lock — runs are pure, so any number
of worker threads may execute workloads concurrently on one resident
session.  This is the contract the :mod:`repro.serve` daemon builds on,
hammered by ``tests/test_serve_concurrency.py``.
"""

from __future__ import annotations

import itertools
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from .. import _schema as K
from .._defaults import VERIFICATION_COST_PER_PAIR_S
from .result import Result
from .workload import Workload

if TYPE_CHECKING:
    from ..exec.executor import Executor

__all__ = ["Session"]


def _setup_for(name: str) -> Any:
    from ..gpusim.device import SETUP_1, SETUP_2

    return {"setup1": SETUP_1, "setup2": SETUP_2}[name]


def _shard_payload(shard: Any) -> "dict[str, Any]":
    """The ``shard`` section a per-shard :class:`Result` carries."""
    return {
        K.SHARD_INDEX: shard.index,
        K.N_SHARDS: shard.n_shards,
        K.SHARD_START: shard.start,
        K.SHARD_STOP: shard.stop,
        K.SHARD_TOTAL: shard.total,
    }


class Session:
    """Execute :class:`~repro.api.workload.Workload` specs against cached state.

    Parameters
    ----------
    verification_cost_per_pair_s:
        Calibrated per-pair DP verification cost used by the analytic model
        (single source: :mod:`repro.api.defaults`).
    """

    def __init__(
        self, verification_cost_per_pair_s: float = VERIFICATION_COST_PER_PAIR_S
    ) -> None:
        self.verification_cost_per_pair_s = verification_cost_per_pair_s
        self._engines: dict[tuple[Any, ...], Any] = {}
        self._datasets: dict[tuple[Any, ...], Any] = {}
        self._references: dict[str, Any] = {}
        self._indexes: dict[tuple[str, int], Any] = {}
        self._executors: dict[tuple[str, int], "Executor"] = {}
        self._plans: dict[tuple[Any, ...], Any] = {}
        # Serialises cache construction only (runs are pure and unlocked);
        # re-entrant because index_for builds through reference_for.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Cached construction
    # ------------------------------------------------------------------ #
    def engine_for(self, workload: Workload, read_length: int) -> Any:
        """The cached engine/cascade for a workload's filter + execution spec."""
        from ..planner.guard import ensure_resolved

        ensure_resolved(workload)
        ex = workload.execution
        key = (
            workload.filter.filters,
            workload.filter.error_threshold,
            int(read_length),
            ex.setup,
            ex.n_devices,
            ex.encoding,
            ex.batch_size,
            ex.kernel_tier,
        )
        with self._lock:
            engine = self._engines.get(key)
            if engine is None:
                from ..core.config import EncodingActor
                from ..engine import FilterCascade, FilterEngine

                engine_kwargs = dict(
                    read_length=int(read_length),
                    error_threshold=workload.filter.error_threshold,
                    setup=_setup_for(ex.setup),
                    n_devices=ex.n_devices,
                    encoding=EncodingActor(ex.encoding),
                    max_reads_per_batch=ex.batch_size,
                    kernel_tier=ex.kernel_tier,
                )
                if workload.filter.is_cascade:
                    engine = FilterCascade.from_names(
                        list(workload.filter.filters), **engine_kwargs
                    )
                else:
                    engine = FilterEngine(workload.filter.filters[0], **engine_kwargs)
                self._engines[key] = engine
            return engine

    def dataset_for(self, workload: Workload) -> Any:
        """The cached simulated :class:`PairDataset` for a ``dataset`` input."""
        spec = workload.input
        key = (spec.dataset, spec.n_pairs, spec.seed)
        with self._lock:
            dataset = self._datasets.get(key)
            if dataset is None:
                from ..simulate.datasets import build_dataset

                dataset = build_dataset(
                    str(spec.dataset), n_pairs=spec.n_pairs, seed=spec.seed
                )
                dataset.encoded()  # encode once, inside the lock, not per-run
                self._datasets[key] = dataset
            return dataset

    def reference_for(self, path: str) -> Any:
        """The cached :class:`ReferenceGenome` loaded from a FASTA path."""
        with self._lock:
            reference = self._references.get(path)
            if reference is None:
                from ..runtime.sources import load_reference

                reference = load_reference(path)
                self._references[path] = reference
            return reference

    def index_for(self, path: str, k: int) -> Any:
        """The cached seeding :class:`KmerIndex` over ``path``'s reference."""
        key = (path, int(k))
        with self._lock:
            index = self._indexes.get(key)
            if index is None:
                from ..mapper.index import KmerIndex

                index = KmerIndex(self.reference_for(path), k=int(k))
                self._indexes[key] = index
            return index

    def executor_for(self, workload: Workload) -> "Executor | None":
        """The cached execution backend for a workload's execution spec.

        ``executor = "serial"`` with one worker returns ``None``, which the
        engines run as one share on their shared serial executor.  Pools
        (threads/processes) are built once per ``(backend, workers)``
        configuration and live until :meth:`close`.
        """
        from ..planner.guard import ensure_resolved

        # An executor pool is a fan-out: the filter choice must already be
        # pinned, or workers could not be guaranteed to agree with the plan.
        ensure_resolved(workload)
        ex = workload.execution
        if ex.executor == "serial" and ex.workers <= 1:
            return None
        key = (ex.executor, ex.workers)
        with self._lock:
            executor = self._executors.get(key)
            if executor is None:
                from ..exec import create_executor

                executor = create_executor(ex.executor, ex.workers)
                self._executors[key] = executor
            return executor

    def cached_plan(self, key: "tuple[Any, ...] | None") -> Any:
        """The cached planner :class:`~repro.planner.Plan` for a key, if any."""
        if key is None:
            return None
        with self._lock:
            return self._plans.get(key)

    def cache_plan(self, key: "tuple[Any, ...] | None", plan: Any) -> None:
        """Remember a planner decision (no-op for uncacheable keys)."""
        if key is None:
            return
        with self._lock:
            self._plans[key] = plan

    def probe_pairs(self, workload: Workload, n: int) -> "list[tuple[str, str]]":
        """The first ``min(n, total)`` pairs of the workload's input.

        This is the planner's probe prefix: both execution modes consume the
        input in this one order (a dataset's pair iterator is its cached
        batch's row order), so the probe — and with it the plan — is
        independent of how the run will later execute.
        """
        pairs, _name = self._input_pairs(workload)
        return list(itertools.islice(pairs, int(n)))

    def close(self) -> None:
        """Shut down every cached execution backend (pools, shared memory).

        Idempotent; the construction caches (engines, datasets, references,
        indexes) survive so the session remains usable — a subsequent
        parallel run simply builds a fresh pool.
        """
        with self._lock:
            executors, self._executors = self._executors, {}
        for executor in executors.values():
            executor.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def cache_info(self) -> dict[str, int]:
        """How much constructed state the session is holding."""
        return {
            "engines": len(self._engines),
            "datasets": len(self._datasets),
            "references": len(self._references),
            "indexes": len(self._indexes),
            "executors": len(self._executors),
            "plans": len(self._plans),
        }

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, workload: "Workload | str | Path") -> Result:
        """Execute one workload and return its canonical :class:`Result`.

        ``workload`` may also be a path to a ``.toml`` / ``.json`` workload
        file, as a convenience mirroring ``repro run``.
        """
        if isinstance(workload, (str, Path)):
            workload = Workload.from_file(workload)
        if workload.filter.is_auto:
            # Resolve 'auto' here — the single planning point — so every
            # path below (engines, executor fan-outs, streaming) sees a
            # concrete, plan-stamped cascade.
            from ..planner import resolve_workload

            workload = resolve_workload(self, workload)
        if workload.input.kind == "mapping":
            return self._run_mapping(workload)
        return self._run_filter(workload)

    def run_all(self, workloads: Iterable[Workload]) -> list[Result]:
        """Execute several workloads on the same resident state."""
        return [self.run(workload) for workload in workloads]

    # -- filtering path ------------------------------------------------- #
    def _input_pairs(self, workload: Workload) -> tuple[Iterator[tuple[str, str]], str]:
        """The pair iterator + run name of a filtering workload's input."""
        from ..runtime.sources import (
            ensure_pairs_path,
            pairs_from_dataset,
            pairs_from_tsv,
            seeded_pairs,
        )

        spec = workload.input
        if spec.kind == "dataset":
            return pairs_from_dataset(self.dataset_for(workload)), spec.display_name()
        if spec.kind == "pairs":
            return iter(list(spec.pairs or ())), spec.display_name()
        if spec.kind == "tsv":
            return pairs_from_tsv(ensure_pairs_path(str(spec.path))), spec.display_name()
        # kind == "reads": seed the read file against the cached reference index.
        reference = self.reference_for(str(spec.reference))
        index = self.index_for(str(spec.reference), spec.seeding_k)
        return (
            seeded_pairs(
                str(spec.path),
                reference,
                workload.filter.error_threshold,
                k=spec.seeding_k,
                max_candidates_per_read=spec.max_candidates_per_read,
                index=index,
            ),
            spec.display_name(),
        )

    def _run_filter(self, workload: Workload) -> Result:
        """Run a filtering workload through the one chunk loop.

        ``execution.mode`` decides only the chunk size (the whole input in
        memory mode) and whether the Result carries its streaming and
        per-chunk sections.  Dataset inputs arrive as row-slice views of the
        session-cached encoded batch, so warm runs never re-encode; every
        other input is parsed, chunked and encoded as it streams in.
        """
        from ..engine.registry import get_filter_class
        from ..exec.reduce import reduce_totals
        from ..runtime.streaming import StreamingPipeline

        spec, ex, output = workload.input, workload.execution, workload.output
        memory = workload.resolved_mode() == "memory"
        shard = ex.shard
        dataset = self.dataset_for(workload) if spec.kind == "dataset" else None
        # Memory mode runs the whole input (or shard) as one chunk, so it needs
        # the size up front — which only dataset and pairs inputs know.
        total = len(dataset) if dataset is not None else len(spec.pairs or ())
        start, stop = (shard.start, shard.stop) if shard is not None else (0, None)
        if shard is not None:
            if spec.kind in ("dataset", "pairs") and shard.total != total:
                raise ValueError(
                    f"workload.execution.shard.total: the shard plan assumed "
                    f"{shard.total} pairs but the input produced {total}"
                )
            total = shard.n_pairs
        pipeline = StreamingPipeline(
            lambda read_length: self.engine_for(workload, read_length),
            chunk_size=total if memory else ex.chunk_size,
            verification_cost_per_pair_s=self.verification_cost_per_pair_s,
            collect_decisions=output.collect_decisions,
            max_chunk_reports=0 if memory or not output.include_chunks else output.max_chunk_rows,
            # Streamed shards record per-chunk device timings so `repro merge`
            # can replay the stream-overlap accumulation in single-run order.
            collect_chunk_timings=shard is not None and not memory,
            executor=self.executor_for(workload),
            prefetch=ex.prefetch,
        )
        if dataset is not None:
            batch, reads, segments = dataset.encoded(), dataset.reads, dataset.segments
            if shard is not None:
                batch, reads, segments = batch[start:stop], reads[start:stop], segments[start:stop]
            report = pipeline.run_encoded(
                batch,
                reads,
                segments,
                # Memory mode labels the run with the dataset's own name.
                name=dataset.name if memory else spec.display_name(),
                verify=ex.verify,
            )
        else:
            pairs, name = self._input_pairs(workload)
            report = pipeline.run_pairs(
                itertools.islice(pairs, start, stop), name=name, verify=ex.verify
            )
        if shard is not None and report.n_pairs != shard.n_pairs:
            raise ValueError(
                f"workload.execution.shard: slice [{shard.start}, {shard.stop}) "
                f"produced {report.n_pairs} pairs (expected {shard.n_pairs}); "
                f"the input is shorter than the shard plan assumed"
            )

        # An empty input never resolves an engine, in which case no kernel ran.
        engine = pipeline.engine
        accounts, _, _ = reduce_totals(
            engine, report.n_pairs, report.stage_inputs, report.n_accepted
        )
        result = Result.from_report(
            report,
            workload,
            filter_name=" -> ".join(
                get_filter_class(key).name for key in workload.filter.filters
            ),
            stages=[account.summary() for account in accounts],
        )
        result.kernel_tier = getattr(engine, "active_kernel_tier", None)
        if shard is not None:
            payload = _shard_payload(shard)
            if report.chunk_device_timings is not None:
                payload[K.CHUNK_DEVICE_TIMINGS] = report.chunk_device_timings
            result.shard = payload
        return result

    # -- mapping path ---------------------------------------------------- #
    def _run_mapping(self, workload: Workload) -> Result:
        from ..analysis import experiments
        from ..core.config import EncodingActor

        spec = workload.input
        run = experiments.run_whole_genome(
            n_reads=spec.n_reads,
            read_length=spec.read_length,
            genome_length=spec.genome_length,
            error_threshold=workload.filter.error_threshold,
            seed=spec.seed,
            setup=_setup_for(workload.execution.setup),
            encoding=EncodingActor(workload.execution.encoding),
            filter_name=workload.filter.filters[0],
            n_devices=workload.execution.n_devices,
        )
        rows = experiments.whole_genome_mapping_rows(run)
        if not spec.prefilter:
            rows = rows[:1]  # just the NoFilter row
        return Result.from_mapping_run(run, workload, rows)

