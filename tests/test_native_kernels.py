"""The native kernel tier: registry, dispatch, fallback and plumbing.

The differential (bit-identity) contract between the native kernel sources
and their NumPy twins lives in ``tests/test_filters_hypothesis.py``; this
module covers the *machinery* around them — the registry and its tier
resolution, the silent-fallback guarantees (Numba absent, native kernel
raising), and the ``kernel_tier`` knob threaded through Workload, Session,
FilterEngine, FilterCascade and the CLI.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import Session, Workload
from repro.api.workload import ExecutionSpec
from repro.engine import FilterCascade, FilterEngine
from repro.filters import GateKeeperGPUFilter, native
from repro.filters.native import (
    DEFAULT_KERNEL_TIER,
    KERNEL_TIERS,
    active_tier,
    numba_available,
    registered_kernels,
    resolve,
    validate_tier,
)
from repro.genomics.encoding import EncodedBatch, EncodedPairBatch, pack_codes_to_words
from repro.simulate import build_dataset

#: Every kernel pair the registry must expose (the tier's public surface).
EXPECTED_KERNELS = {"gatekeeper_kernel", "sneakysnake_kernel", "magnet_kernel"}


def dataset_workload(**execution):
    return Workload.from_dict(
        {
            "input": {"kind": "dataset", "dataset": "Set 1", "n_pairs": 200, "seed": 7},
            "filter": {"filter": "magnet", "error_threshold": 3},
            "execution": execution,
        }
    )


@pytest.fixture
def no_numba(monkeypatch):
    """Force the availability probe to report Numba as absent."""
    monkeypatch.setattr(native, "_AVAILABLE", False)


@pytest.fixture
def with_numba(monkeypatch):
    """Force the availability probe to report Numba as present."""
    monkeypatch.setattr(native, "_AVAILABLE", True)


class TestRegistry:
    def test_all_kernels_registered(self):
        assert set(registered_kernels()) == EXPECTED_KERNELS

    def test_resolve_unknown_kernel(self):
        with pytest.raises(KeyError, match="unknown native kernel"):
            resolve("no_such_kernel")

    def test_numpy_tier_always_resolves_numpy(self, with_numba):
        for name in registered_kernels():
            fn, tier = resolve(name, "numpy")
            assert tier == "numpy"
            assert callable(fn)

    def test_fallbacks_share_the_kernel_name(self):
        # The structural half of the native-kernel-parity contract, checked
        # dynamically: resolve(name, "numpy") returns a function called name.
        for name in registered_kernels():
            fn, _ = resolve(name, "numpy")
            assert fn.__name__ == name

    def test_validate_tier(self):
        for tier in KERNEL_TIERS:
            assert validate_tier(tier) == tier
        with pytest.raises(ValueError, match="unknown kernel_tier"):
            validate_tier("cuda")

    def test_active_tier_without_numba(self, no_numba):
        assert active_tier("auto") == "numpy"
        assert active_tier("native") == "numpy"
        assert active_tier("numpy") == "numpy"

    def test_active_tier_with_numba(self, with_numba):
        assert active_tier("auto") == "native"
        assert active_tier("native") == "native"
        assert active_tier("numpy") == "numpy"

    def test_default_tier_is_auto(self):
        assert DEFAULT_KERNEL_TIER == "auto"

    def test_resolve_without_numba_is_numpy(self, no_numba):
        for name in registered_kernels():
            _, tier = resolve(name, "native")
            assert tier == "numpy"


class TestGuardedFallback:
    def test_native_call_failure_replays_numpy_and_disables(
        self, with_numba, monkeypatch
    ):
        calls = []

        def broken(*args, **kwargs):
            calls.append("native")
            raise RuntimeError("jit exploded")

        name = "gatekeeper_kernel"
        native._ensure_registered()
        monkeypatch.setitem(native._REGISTRY[name], "native", broken)
        fn, tier = resolve(name, "native")
        assert tier == "native"
        # An exact match and an all-different pair, 32 bases each (e = 0).
        read = np.array([[0] * 32, [0] * 32], dtype=np.uint8)
        ref = np.array([[0] * 32, [3] * 32], dtype=np.uint8)
        args = (pack_codes_to_words(read, 64), pack_codes_to_words(ref, 64), 32, 0, True, 4, 2)
        out = fn(*args)
        # The failed native call was replayed on the NumPy twin...
        assert calls == ["native"]
        assert np.array_equal(out, np.array([0, 8], dtype=np.int32))
        # ...and the kernel is disabled for the rest of the process.
        _, tier = resolve(name, "native")
        assert tier == "numpy"


class TestKernelDispatch:
    def _words(self, n_pairs=16, length=48, seed=0):
        rng = np.random.default_rng(seed)
        read = rng.integers(0, 4, size=(n_pairs, length), dtype=np.uint8)
        ref = rng.integers(0, 4, size=(n_pairs, length), dtype=np.uint8)
        return pack_codes_to_words(read, 64), pack_codes_to_words(ref, 64), length

    def test_gatekeeper_filter_batch_tier_equality(self):
        rng = np.random.default_rng(0)
        read = rng.integers(0, 4, size=(16, 48), dtype=np.uint8)
        ref = rng.integers(0, 4, size=(16, 48), dtype=np.uint8)
        undefined = np.zeros(16, dtype=bool)
        pairs = EncodedPairBatch(EncodedBatch(read, undefined), EncodedBatch(ref, undefined))
        outputs = [
            GateKeeperGPUFilter(3).filter_batch(pairs, tier=tier) for tier in KERNEL_TIERS
        ]
        for estimates, accepted in outputs[1:]:
            assert np.array_equal(outputs[0][0], estimates)
            assert np.array_equal(outputs[0][1], accepted)

    @pytest.mark.parametrize("name", ["gatekeeper-gpu", "sneakysnake", "magnet"])
    def test_filter_word_path_tier_equality(self, name, no_numba):
        from repro.engine import get_filter

        read_words, ref_words, length = self._words()
        instance = get_filter(name, 3)
        estimates = [
            instance.estimate_edits_words(read_words, ref_words, length, tier=tier)
            for tier in KERNEL_TIERS
        ]
        assert np.array_equal(estimates[0], estimates[1])
        assert np.array_equal(estimates[0], estimates[2])


class TestEnginePlumbing:
    def test_engine_validates_tier(self):
        with pytest.raises(ValueError, match="unknown kernel_tier"):
            FilterEngine("magnet", 100, 3, kernel_tier="gpu")

    def test_engine_records_active_tier_in_metadata(self, no_numba):
        dataset = build_dataset("Set 1", n_pairs=50, seed=1)
        engine = FilterEngine("magnet", 100, 3, kernel_tier="native")
        result = engine.filter_encoded(dataset.encoded())
        # Numba absent: the "native" request silently fell back, and the
        # metadata says so.
        assert result.metadata["kernel_tier"] == "numpy"
        assert engine.active_kernel_tier == "numpy"

    def test_cascade_exposes_stage_tier(self, no_numba):
        dataset = build_dataset("Set 1", n_pairs=50, seed=1)
        cascade = FilterCascade.from_names(
            ["gatekeeper", "magnet"], 100, 3, kernel_tier="numpy"
        )
        assert cascade.kernel_tier == "numpy"
        result = cascade.filter_encoded(dataset.encoded())
        assert result.metadata["kernel_tier"] == "numpy"

    def test_decisions_identical_across_tiers(self):
        dataset = build_dataset("Set 1", n_pairs=150, seed=2)
        results = [
            FilterEngine("magnet", 100, 3, kernel_tier=tier).filter_encoded(dataset.encoded())
            for tier in KERNEL_TIERS
        ]
        for other in results[1:]:
            assert np.array_equal(results[0].accepted, other.accepted)
            assert np.array_equal(results[0].estimated_edits, other.estimated_edits)


class TestWorkloadPlumbing:
    def test_execution_spec_default(self):
        assert ExecutionSpec().kernel_tier == "auto"

    def test_execution_spec_validates(self):
        with pytest.raises(ValueError, match="kernel_tier"):
            ExecutionSpec(kernel_tier="fast")

    def test_kernel_tier_loads_from_dict(self):
        workload = dataset_workload(kernel_tier="numpy")
        assert workload.execution.kernel_tier == "numpy"

    def test_kernel_tier_excluded_from_canonical_dict(self):
        auto = dataset_workload().to_dict()
        pinned = dataset_workload(kernel_tier="numpy").to_dict()
        assert auto == pinned
        assert "kernel_tier" not in json.dumps(auto)

    def test_result_json_identical_across_tiers(self):
        # The forced-fallback contract: whatever tier is requested (and
        # whether or not it is available), the serialised report is
        # byte-identical.
        with Session() as session:
            reports = [
                session.run(dataset_workload(kernel_tier=tier)).to_json()
                for tier in KERNEL_TIERS
            ]
        assert reports[0] == reports[1] == reports[2]

    def test_result_json_identical_with_numba_masked_away(self, no_numba):
        with Session() as session:
            masked = session.run(dataset_workload(kernel_tier="native")).to_json()
        with Session() as session:
            reference = session.run(dataset_workload(kernel_tier="numpy")).to_json()
        assert masked == reference

    def test_result_records_active_tier(self, no_numba):
        with Session() as session:
            result = session.run(dataset_workload(kernel_tier="native"))
        assert result.kernel_tier == "numpy"
        assert "kernel_tier" not in result.as_dict()

    def test_session_engine_cache_keyed_by_tier(self):
        with Session() as session:
            session.run(dataset_workload(kernel_tier="numpy"))
            session.run(dataset_workload(kernel_tier="auto"))
            engines = session.cache_info["engines"]
        assert engines == 2


class TestCliPlumbing:
    def test_run_flag_overrides_workload_file(self, tmp_path, capsys):
        from repro.cli import run_main

        path = tmp_path / "workload.json"
        path.write_text(
            json.dumps(
                {
                    "input": {
                        "kind": "dataset",
                        "dataset": "Set 1",
                        "n_pairs": 100,
                        "seed": 7,
                    },
                    "filter": {"filter": "magnet", "error_threshold": 3},
                }
            )
        )
        assert run_main([str(path)]) == 0
        base = capsys.readouterr().out
        assert run_main([str(path), "--kernel-tier", "numpy"]) == 0
        assert capsys.readouterr().out == base

    def test_rejects_unknown_tier(self, tmp_path, capsys):
        from repro.cli import run_main

        path = tmp_path / "workload.json"
        path.write_text(json.dumps({"input": {"kind": "dataset", "dataset": "Set 1"}}))
        with pytest.raises(SystemExit):
            run_main([str(path), "--kernel-tier", "warp"])
        assert "invalid choice: 'warp'" in capsys.readouterr().err


class TestServerPlumbing:
    def test_server_validates_tier(self):
        from repro.serve.server import ReproServer

        with pytest.raises(ValueError, match="unknown kernel_tier"):
            ReproServer(kernel_tier="quantum")

    def test_server_default_overrides_auto_only(self):
        import dataclasses

        from repro.serve.server import ReproServer

        server = ReproServer(kernel_tier="numpy")
        try:
            auto = dataset_workload()
            pinned = dataset_workload(kernel_tier="native")
            # Mirror the override applied in _handle_run.
            for workload, expected in ((auto, "numpy"), (pinned, "native")):
                if (
                    server.kernel_tier is not None
                    and workload.execution.kernel_tier == "auto"
                ):
                    workload = workload.replace(
                        execution=dataclasses.replace(
                            workload.execution, kernel_tier=server.kernel_tier
                        )
                    )
                assert workload.execution.kernel_tier == expected
        finally:
            server.session.close()


class TestAvailabilityProbe:
    def test_probe_matches_import_reality(self, monkeypatch):
        monkeypatch.setattr(native, "_AVAILABLE", None)
        try:
            import numba  # noqa: F401

            importable = True
        except ImportError:
            importable = False
        assert numba_available() is importable
