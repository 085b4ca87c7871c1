"""Executor invariance: every backend/worker count, byte-identical results.

The contract of :mod:`repro.exec` is that execution backends change *how
fast* a workload runs and never *what* it computes.  These tests pin that
down at every layer: engine and cascade fan-out (checked against a
stage-by-stage reference written here, which shares no code with the
engines), the streaming runtime (with and without prefetch), and the Session
front door (full canonical Result JSON), across ``{serial, threads,
processes} x workers {1, 2, 4}`` — plus the empty-share regression
(``n_items < workers``) and the pool/shared-memory lifecycle.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import Session, Workload
from repro.engine import FilterCascade, FilterEngine
from repro.exec import (
    ProcessExecutor,
    create_executor,
    expected_n_batches,
    share_slices,
)
from repro.gpusim import split_evenly
from repro.simulate.datasets import build_dataset
from helpers import BaseCountFilter, kernel_batches

BACKENDS = ("serial", "threads", "processes")
WORKER_COUNTS = (1, 2, 4)
ERROR_THRESHOLD = 5
N_PAIRS = 600


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("Set 1", n_pairs=N_PAIRS, seed=11)


@pytest.fixture(scope="module")
def encoded(dataset):
    return dataset.encoded()


@pytest.fixture(scope="module")
def executors():
    """One pool per (backend, workers), shared across the module's tests."""
    pool = {}
    yield lambda kind, workers: pool.setdefault(
        (kind, workers), create_executor(kind, workers)
    )
    for executor in pool.values():
        executor.close()


#: No executor (a one-share serial run), then every backend x worker count.
EXECUTIONS = [None] + [(kind, workers) for kind in BACKENDS for workers in WORKER_COUNTS]


def _execution_id(execution):
    return "none" if execution is None else f"{execution[0]}-{execution[1]}"


def _executor(executors, execution):
    return None if execution is None else executors(*execution)


def reference_run(stages, pairs):
    """A stage-by-stage reference that shares no code with the engines.

    Each stage's bare filter runs its batch kernel once over the survivors
    of every earlier stage, selected by index.  Returns ``(estimates,
    accepted, undefined, stage_counts)`` with one ``(n_input, n_accepted)``
    tuple per stage the batch reached.
    """
    n = pairs.n_pairs
    estimates = np.zeros(n, dtype=np.int32)
    undefined = np.zeros(n, dtype=bool)
    stage_counts = []
    alive = np.arange(n)
    survivors = pairs
    for stage in stages:
        if len(alive) == 0:
            break
        stage_estimates, stage_accepted = stage.filter.filter_batch(survivors)
        estimates[alive] = stage_estimates
        undefined[alive] |= survivors.undefined
        keep = np.flatnonzero(stage_accepted)
        stage_counts.append((len(alive), len(keep)))
        alive = alive[keep]
        survivors = survivors.select(keep)
    accepted = np.zeros(n, dtype=bool)
    accepted[alive] = True
    return estimates, accepted, undefined, stage_counts


def assert_matches_reference(result, stages, pairs):
    estimates, accepted, undefined, stage_counts = reference_run(stages, pairs)
    assert np.array_equal(result.accepted, accepted)
    assert np.array_equal(result.estimated_edits, estimates)
    assert np.array_equal(result.undefined, undefined)
    assert [(a.n_input, a.n_accepted) for a in result.stage_accounts] == stage_counts


class TestEngineInvariance:
    @pytest.mark.parametrize("execution", EXECUTIONS, ids=_execution_id)
    def test_engine_matches_reference(self, encoded, dataset, executors, execution):
        engine = FilterEngine(
            "gatekeeper-gpu",
            read_length=dataset.read_length,
            error_threshold=ERROR_THRESHOLD,
        )
        baseline = engine.filter_encoded(encoded)
        result = engine.filter_encoded(encoded, executor=_executor(executors, execution))
        assert_matches_reference(result, [engine], encoded)
        assert result.n_batches == baseline.n_batches
        assert result.timing == baseline.timing
        assert result.metadata == baseline.metadata

    @pytest.mark.parametrize("execution", EXECUTIONS, ids=_execution_id)
    def test_cascade_matches_reference(self, encoded, dataset, executors, execution):
        cascade = FilterCascade.from_names(
            ["gatekeeper-gpu", "sneakysnake"],
            read_length=dataset.read_length,
            error_threshold=ERROR_THRESHOLD,
        )
        baseline = cascade.filter_encoded(encoded)
        result = cascade.filter_encoded(encoded, executor=_executor(executors, execution))
        assert_matches_reference(result, cascade.stages, encoded)
        assert result.n_batches == baseline.n_batches
        assert result.timing == baseline.timing
        assert result.stage_summaries() == baseline.stage_summaries()

    @pytest.mark.parametrize("filter_name", ["magnet", "shouji", "sneakysnake", "shd"])
    def test_every_filter_family_is_invariant(self, encoded, dataset, executors, filter_name):
        engine = FilterEngine(
            filter_name,
            read_length=dataset.read_length,
            error_threshold=ERROR_THRESHOLD,
        )
        for executor in (None, executors("processes", 4)):
            result = engine.filter_encoded(encoded, executor=executor)
            assert_matches_reference(result, [engine], encoded)


class TestEmptyShares:
    """``split_evenly(n, workers)`` yields empty slices when n < workers."""

    def test_share_slices_drops_empties(self):
        assert share_slices(2, 4) == [slice(0, 1), slice(1, 2)]
        assert share_slices(0, 4) == []
        assert share_slices(4, 4) == [slice(i, i + 1) for i in range(4)]

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_executor_skips_empty_shares(self, encoded, dataset, executors, kind):
        engine = FilterEngine(
            "gatekeeper-gpu",
            read_length=dataset.read_length,
            error_threshold=ERROR_THRESHOLD,
        )
        executor = executors(kind, 4)
        # Hand the executor explicit empty slices: they must be skipped (not
        # submitted), reported as None, and contribute zeros downstream.
        outcomes = executor.run_shares(
            "engine", engine, encoded, [slice(0, 0), slice(0, 2), slice(2, 2)]
        )
        assert outcomes[0] is None
        assert outcomes[2] is None
        assert outcomes[1] is not None and outcomes[1].accepted.shape == (2,)

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_fewer_pairs_than_workers(self, encoded, dataset, executors, kind):
        engine = FilterEngine(
            "gatekeeper-gpu",
            read_length=dataset.read_length,
            error_threshold=ERROR_THRESHOLD,
        )
        small = encoded[np.arange(2)]
        baseline = engine.filter_encoded(small)
        result = engine.filter_encoded(small, executor=executors(kind, 4))
        assert_matches_reference(result, [engine], small)
        assert result.n_batches == baseline.n_batches

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_cascade_stage_extinction_reports_zeros(self, executors, kind):
        """A stage that rejects everything: later stages report nothing, the
        rejecting stage reports its zeros — same as the one-share run."""
        # Far pairs at threshold 0: gatekeeper-gpu rejects every pair in
        # stage 0, so stage 1 sees 0 survivors in every worker share.
        dataset = build_dataset("Set 3", n_pairs=40, seed=3)
        cascade = FilterCascade.from_names(
            ["gatekeeper-gpu", "sneakysnake"],
            read_length=dataset.read_length,
            error_threshold=0,
        )
        encoded = dataset.encoded()
        baseline = cascade.filter_encoded(encoded)
        result = cascade.filter_encoded(encoded, executor=executors(kind, 4))
        assert_matches_reference(result, cascade.stages, encoded)
        assert result.stage_summaries() == baseline.stage_summaries()
        accounts = result.stage_accounts
        if baseline.n_accepted == 0 and len(accounts) == 1:
            assert accounts[0].n_accepted == 0

    def test_expected_n_batches_zero_items(self, dataset):
        engine = FilterEngine(
            "gatekeeper-gpu", read_length=dataset.read_length, error_threshold=5
        )
        assert expected_n_batches(engine.config, 0) == 0

    @pytest.mark.parametrize(
        "n_devices, max_reads_per_batch, n_pairs",
        [(1, 100_000, 600), (3, 37, 600), (4, 77, 101), (2, 1, 5)],
    )
    def test_expected_n_batches_counts_the_kernel_batches(
        self, encoded, monkeypatch, n_devices, max_reads_per_batch, n_pairs
    ):
        """The reported count is the kernel calls each device share makes."""
        engine = FilterEngine(
            "shd", read_length=encoded.length, error_threshold=5,
            n_devices=n_devices, max_reads_per_batch=max_reads_per_batch,
        )
        pairs = encoded[:n_pairs]
        sizes = kernel_batches(engine, monkeypatch)
        for share in split_evenly(n_pairs, n_devices):
            engine.filter_encoded_share(pairs[share])
        batches = len(sizes)
        assert expected_n_batches(engine.config, n_pairs) == batches
        assert engine.filter_encoded(pairs).n_batches == batches


class TestSessionResultInvariance:
    """The acceptance criterion: canonical Result JSON is byte-identical
    across all executor backends and worker counts."""

    @staticmethod
    def _workload(kind, workers, mapping=False, **execution):
        source = {
            "input": {"kind": "dataset", "dataset": "Set 1",
                      "n_pairs": N_PAIRS, "seed": 11},
            "filter": {"cascade": ["gatekeeper-gpu", "sneakysnake"],
                       "error_threshold": ERROR_THRESHOLD},
        }
        if mapping:
            source = {
                "input": {"kind": "mapping", "n_reads": 30,
                          "genome_length": 12_000, "seed": 11},
                "filter": {"filter": "gatekeeper-gpu",
                           "error_threshold": ERROR_THRESHOLD},
            }
        return Workload.from_dict(
            {**source, "execution": {"executor": kind, "workers": workers, **execution}}
        )

    @pytest.mark.parametrize("mode", ["memory", "streaming", "mapping"])
    def test_results_byte_identical_across_backends(self, mode):
        execution = {"mapping": True} if mode == "mapping" else {"mode": mode}
        if mode == "streaming":
            execution["chunk_size"] = 128
        with Session() as session:
            baseline = session.run(self._workload("serial", 1, **execution)).to_json()
            for kind in BACKENDS:
                for workers in WORKER_COUNTS:
                    run = dict(execution)
                    if mode == "streaming" and kind != "serial":
                        run["prefetch"] = True
                    result = session.run(self._workload(kind, workers, **run))
                    assert result.to_json() == baseline, (mode, kind, workers)

    def test_filter_without_a_word_kernel_on_every_backend(self, monkeypatch):
        """A registered per-pair Python filter, the case processes are kept for."""
        from repro.engine import registry

        monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
        monkeypatch.setattr(registry, "_ALIASES", dict(registry._ALIASES))
        registry.register_filter("base-count", BaseCountFilter)
        outputs = set()
        for kind, workers in (("serial", 1), ("threads", 2), ("processes", 2)):
            workload = Workload.from_dict({
                "input": {"kind": "dataset", "dataset": "Set 1",
                          "n_pairs": N_PAIRS, "seed": 11},
                "filter": {"filter": "base-count", "error_threshold": ERROR_THRESHOLD},
                "execution": {"executor": kind, "workers": workers},
            })
            with Session() as session:
                outputs.add(session.run(workload).to_json())
                if kind == "processes":
                    assert session.executor_for(workload).live_segments == 0
        assert len(outputs) == 1
        assert '"filter": "BaseCount"' in outputs.pop()

    def test_backend_knobs_are_not_part_of_the_canonical_workload(self):
        serial = self._workload("serial", 1)
        parallel = self._workload("processes", 4, prefetch=True)
        assert serial.to_dict() == parallel.to_dict()


class TestPoolLifecycle:
    def test_session_close_shuts_executors_down(self):
        session = Session()
        workload = TestSessionResultInvariance._workload("processes", 2)
        session.run(workload)
        assert session.cache_info["executors"] == 1
        executor = session._executors[("processes", 2)]
        assert executor.live_segments == 0  # released at fan-out end, not close
        session.close()
        assert session.cache_info["executors"] == 0
        assert executor.closed
        with pytest.raises(RuntimeError):
            executor.run_shares("engine", None, None, [slice(0, 1)])
        # The session stays usable: the next run builds a fresh pool.
        session.run(workload)
        session.close()

    def test_no_leaked_shared_memory_segments(self, encoded, dataset):
        engine = FilterEngine(
            "gatekeeper-gpu",
            read_length=dataset.read_length,
            error_threshold=ERROR_THRESHOLD,
        )
        executor = ProcessExecutor(workers=2)
        try:
            for _ in range(3):
                engine.filter_encoded(encoded, executor=executor)
                assert executor.live_segments == 0
        finally:
            executor.close()
        assert executor.live_segments == 0

    def test_executor_context_manager(self):
        with create_executor("threads", 2) as executor:
            assert not executor.closed
        assert executor.closed

    def test_create_executor_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown executor"):
            create_executor("gpu", 2)
        with pytest.raises(ValueError, match="workers"):
            create_executor("threads", 0)


class TestAttachTrackerFallback:
    """The track=False-unsupported fallback must not adopt tracker ownership.

    On interpreters without ``SharedMemory(track=...)`` (pre-3.13 — including
    this one) a plain attach registers the segment with the resource tracker,
    which would make the attaching process co-own a segment the exporter
    already owns.  ``_attach_segment`` suppresses that registration; if the
    interpreter's attach path bypasses ``resource_tracker.register``, it
    explicitly unregisters the duplicate behind a guard.
    """

    def test_fallback_attach_registers_nothing(self, encoded, monkeypatch):
        from multiprocessing import resource_tracker, shared_memory

        from repro.exec.shared_batch import _attach_segment, export_batch

        real_shared_memory = shared_memory.SharedMemory

        class _NoTrackSharedMemory(real_shared_memory):
            """Pre-3.13 signature: the track keyword is unknown."""

            def __init__(self, name=None, create=False, size=0, **kwargs):
                if "track" in kwargs:
                    raise TypeError(
                        "__init__() got an unexpected keyword argument 'track'"
                    )
                super().__init__(name=name, create=create, size=size)

        registered: list[tuple[str, str]] = []
        unregistered: list[tuple[str, str]] = []
        real_register = resource_tracker.register

        def recording_register(target, rtype):
            registered.append((target, rtype))
            real_register(target, rtype)

        segment, handle = export_batch(encoded, include_words=True)
        try:
            monkeypatch.setattr(
                shared_memory, "SharedMemory", _NoTrackSharedMemory
            )
            monkeypatch.setattr(resource_tracker, "register", recording_register)
            monkeypatch.setattr(
                resource_tracker,
                "unregister",
                lambda target, rtype: unregistered.append((target, rtype)),
            )
            attached = _attach_segment(handle.name)
            try:
                view = np.ndarray(
                    handle.arrays["read_codes"].shape,
                    dtype=handle.arrays["read_codes"].dtype,
                    buffer=attached.buf,
                    offset=handle.arrays["read_codes"].offset,
                )
                np.testing.assert_array_equal(view, encoded.read_codes)
                del view
            finally:
                attached.close()
            # The attach neither registered the segment with this process's
            # tracker nor needed the unregister escape hatch (the suppression
            # intercepted the registration at the source).
            assert registered == []
            assert unregistered == []
            # The register monkeypatch was restored after the attach.
            assert resource_tracker.register is recording_register
        finally:
            monkeypatch.undo()
            segment.close()
            segment.unlink()

    def test_unregister_guard_when_registration_escapes(self, monkeypatch):
        from multiprocessing import resource_tracker

        from repro.exec import shared_batch

        class _UntrackedFakeSegment:
            """Attach path that never calls resource_tracker.register."""

            def __init__(self, name=None, **kwargs):
                if "track" in kwargs:
                    raise TypeError(
                        "__init__() got an unexpected keyword argument 'track'"
                    )
                self.name = name
                self._name = "/" + name

        unregistered: list[tuple[str, str]] = []

        def raising_unregister(target, rtype):
            unregistered.append((target, rtype))
            raise KeyError(target)  # never registered here: must be swallowed

        monkeypatch.setattr(
            shared_batch.shared_memory, "SharedMemory", _UntrackedFakeSegment
        )
        monkeypatch.setattr(resource_tracker, "unregister", raising_unregister)
        segment = shared_batch._attach_segment("repro-test-segment")
        assert segment.name == "repro-test-segment"
        # The escape hatch fired exactly once, with the registered spelling,
        # and its KeyError did not propagate.
        assert unregistered == [("/repro-test-segment", "shared_memory")]
