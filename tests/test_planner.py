"""Tests for the adaptive cascade planner (``repro.planner``, ``filter = "auto"``).

Covers the spec-validation contract (typed ValueErrors naming the offending
``[filter.planner]`` field), the plan cache, the resolution seams
(``Session.run`` / ``plan_shards`` / the ``ensure_resolved`` guard), the
determinism matrix — same chosen plan and byte-identical Result JSON across
executor backends, worker counts, shard counts and modes — the
never-false-reject property of any planned cascade (Hypothesis), and the
``repro plan`` CLI.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _schema as K
from repro.align import edit_distance
from repro.api import Session, Workload
from repro.api.workload import FilterSpec, PlannerSpec
from repro.cluster import merge_result_dicts, plan_shards
from repro.engine import available_filters
from repro.engine.cascade import FilterCascade
from repro.genomics.encoding import EncodedPairBatch
from repro.planner import (
    PLANNER_VERSION,
    ensure_resolved,
    plan_cache_key,
    plan_workload,
    resolve_workload,
)

N_PAIRS = 4000


def auto_workload(mode="memory", sample_pairs=512, budget=0.02, **execution):
    """A ``filter = "auto"`` dataset workload, small enough for the suite."""
    return {
        "input": {
            "kind": "dataset", "dataset": "Set 1", "n_pairs": N_PAIRS, "seed": 42,
        },
        "filter": {
            "filter": "auto",
            "error_threshold": 3,
            "planner": {
                "sample_pairs": sample_pairs, "false_accept_budget": budget,
            },
        },
        "execution": {"mode": mode, "verify": False, **execution},
    }


def canonical(result) -> str:
    return json.dumps(result.as_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def session():
    with Session() as s:
        yield s


# --------------------------------------------------------------------------- #
# Spec validation
# --------------------------------------------------------------------------- #
class TestPlannerSpecValidation:
    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            (dict(sample_pairs=0), "filter.planner.sample_pairs"),
            (dict(sample_pairs=2.5), "filter.planner.sample_pairs"),
            (dict(false_accept_budget="lots"), "filter.planner.false_accept_budget"),
            (dict(false_accept_budget=True), "filter.planner.false_accept_budget"),
            (dict(false_accept_budget=1.5), "filter.planner.false_accept_budget"),
            (dict(false_accept_budget=-0.1), "filter.planner.false_accept_budget"),
            (dict(max_stages=0), "filter.planner.max_stages"),
            (dict(max_stages=4), "filter.planner.max_stages"),
            (dict(candidates=[]), "filter.planner.candidates"),
            (dict(candidates=[["no-such-filter"]]), r"filter.planner.candidates\[0\]"),
            (dict(candidates=[["shouji", "shouji"]]), r"filter.planner.candidates\[0\]"),
            (dict(candidates=[["shouji"], []]), r"filter.planner.candidates\[1\]"),
        ],
    )
    def test_bad_field_names_the_field(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            PlannerSpec(**kwargs)

    def test_budget_coerced_to_float(self):
        assert PlannerSpec(false_accept_budget=0).false_accept_budget == 0.0

    def test_candidates_normalised_to_tuples(self):
        spec = PlannerSpec(candidates=[["shouji", "sneakysnake"], "shd"])
        assert spec.candidates == (("shouji", "sneakysnake"), ("shd",))

    def test_unknown_planner_key_is_rejected(self):
        data = auto_workload()
        data["filter"]["planner"]["probe"] = 12
        with pytest.raises(ValueError, match="filter.planner"):
            Workload.from_dict(data)

    def test_planner_requires_auto(self):
        with pytest.raises(ValueError, match="filter.planner"):
            FilterSpec(filters=("shouji",), planner=PlannerSpec())

    def test_auto_cannot_be_combined_with_other_filters(self):
        with pytest.raises(ValueError, match="filter.filters"):
            FilterSpec(filters=("auto", "shouji"))

    def test_plan_record_cannot_ride_on_auto(self):
        with pytest.raises(ValueError, match="filter.plan"):
            FilterSpec(filters=("auto",), plan={K.PLANNER_VERSION: 1})

    def test_plan_record_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="filter.plan"):
            FilterSpec(filters=("shouji",), plan={"bogus": 1})

    def test_plan_record_cascade_must_match_filters(self):
        record = {
            K.PLANNER_VERSION: 1, K.CASCADE: ["shd"], K.PROBE_PAIRS: 8,
        }
        with pytest.raises(ValueError, match=f"filter.plan.{K.CASCADE}"):
            FilterSpec(filters=("shouji",), plan=record)

    def test_auto_mapping_workloads_are_rejected(self):
        data = {
            "input": {"kind": "mapping", "n_reads": 10},
            "filter": {"filter": "auto", "error_threshold": 3},
        }
        with pytest.raises(ValueError, match="filter.filters"):
            Workload.from_dict(data)

    def test_auto_cannot_carry_a_shard_section(self):
        data = auto_workload()
        data["execution"]["shard"] = {
            "index": 0, "n_shards": 2, "start": 0, "stop": 2000, "total": N_PAIRS,
        }
        with pytest.raises(ValueError, match="filter.filters"):
            Workload.from_dict(data)


# --------------------------------------------------------------------------- #
# Planning, caching, resolution
# --------------------------------------------------------------------------- #
class TestPlanning:
    def test_plan_requires_auto(self, session):
        workload = Workload.from_dict(
            {
                "input": auto_workload()["input"],
                "filter": {"filter": "shouji", "error_threshold": 3},
            }
        )
        with pytest.raises(ValueError, match="filter = 'auto'"):
            plan_workload(session, workload)

    def test_plan_shape(self, session):
        plan = plan_workload(session, Workload.from_dict(auto_workload()))
        assert plan.probe_pairs == 512
        assert plan.total_pairs == N_PAIRS
        assert 1 <= len(plan.cascade) <= 2
        chosen = [c for c in plan.candidates if c.chosen]
        assert len(chosen) == 1
        assert chosen[0].cascade == plan.cascade
        assert chosen[0].admissible
        # The chosen candidate is the cheapest admissible one.
        best = min(
            (c for c in plan.candidates if c.admissible),
            key=lambda c: (c.est_cost_s, len(c.cascade), c.cascade),
        )
        assert best.cascade == plan.cascade

    def test_record_is_json_shaped_and_schema_complete(self, session):
        record = plan_workload(session, Workload.from_dict(auto_workload())).record()
        # Per-candidate keys nest under `candidates`; the rest are top-level.
        nested = {K.PROBE_ACCEPTS, K.CHOSEN, K.ADMISSIBLE}
        assert set(record) == set(K.PLAN_KEYS) - {K.PLAN} - nested
        assert all(
            set(candidate) == nested | {K.CASCADE, K.EST_ACCEPTS, K.EST_COST_S}
            for candidate in record[K.CANDIDATES]
        )
        assert record[K.PLANNER_VERSION] == PLANNER_VERSION
        assert record == json.loads(json.dumps(record))

    def test_auto_run_caches_only_the_chosen_engine(self):
        """The probe runs each filter's batch kernel, so it builds no engines."""
        with Session() as fresh:
            result = fresh.run(Workload.from_dict(auto_workload()))
            assert fresh.cache_info["engines"] == 1
            assert result.plan is not None

    def test_plans_are_cached_per_input_identity(self, session):
        before = session.cache_info["plans"]
        first = plan_workload(session, Workload.from_dict(auto_workload()))
        again = plan_workload(session, Workload.from_dict(auto_workload()))
        assert again is first
        assert session.cache_info["plans"] == max(before, 1)

    def test_cache_key_tracks_planner_knobs(self):
        workload = Workload.from_dict(auto_workload())
        base = plan_cache_key(workload, PlannerSpec(sample_pairs=512))
        other = plan_cache_key(workload, PlannerSpec(sample_pairs=256))
        assert base is not None and other is not None and base != other

    def test_in_memory_pairs_inputs_are_uncacheable(self):
        workload = Workload.from_dict(
            {
                "input": {"kind": "pairs", "pairs": [["ACGT" * 25, "ACGT" * 25]]},
                "filter": {"filter": "auto", "error_threshold": 3},
            }
        )
        assert plan_cache_key(workload, PlannerSpec()) is None

    def test_resolve_passes_non_auto_through(self, session):
        workload = Workload.from_dict(
            {
                "input": auto_workload()["input"],
                "filter": {"filter": "shouji", "error_threshold": 3},
            }
        )
        assert resolve_workload(session, workload) is workload

    def test_resolve_pins_cascade_and_plan(self, session):
        resolved = resolve_workload(session, Workload.from_dict(auto_workload()))
        assert not resolved.filter.is_auto
        assert resolved.filter.planner is None
        record = resolved.filter.plan
        assert record is not None
        assert tuple(record[K.CASCADE]) == resolved.filter.filters
        # The resolved workload round-trips through its own dict form.
        again = Workload.from_dict(resolved.to_dict())
        assert again.filter.plan == record

    def test_guard_rejects_unresolved_auto(self, session):
        workload = Workload.from_dict(auto_workload())
        with pytest.raises(ValueError, match="unresolved"):
            ensure_resolved(workload)
        with pytest.raises(ValueError, match="unresolved"):
            session.engine_for(workload, 100)
        assert ensure_resolved(resolve_workload(session, workload)) is not None

    def test_plan_is_mode_independent(self):
        # Fresh sessions so the equality is recomputed, not a cache hit.
        with Session() as a:
            memory = plan_workload(a, Workload.from_dict(auto_workload("memory")))
        with Session() as b:
            streaming = plan_workload(
                b, Workload.from_dict(auto_workload("streaming", chunk_size=256))
            )
        assert memory.record() == streaming.record()

    def test_empty_probe_is_a_typed_error(self, session, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        workload = Workload.from_dict(
            {
                "input": {"kind": "tsv", "path": str(empty)},
                "filter": {"filter": "auto", "error_threshold": 3},
            }
        )
        with pytest.raises(ValueError, match="workload.input"):
            plan_workload(session, workload)

    def test_cold_auto_reads_run_loads_the_reference_once(self, monkeypatch):
        """Counting a reads input's pairs reuses the session's reference and index."""
        from repro.mapper import index as index_module
        from repro.runtime import sources

        calls = {"KmerIndex": 0, "load_reference": 0}
        build_index, load_reference = index_module.KmerIndex.__init__, sources.load_reference

        def counting_index(self, *args, **kwargs):
            calls["KmerIndex"] += 1
            build_index(self, *args, **kwargs)

        def counting_load(path):
            calls["load_reference"] += 1
            return load_reference(path)

        monkeypatch.setattr(index_module.KmerIndex, "__init__", counting_index)
        monkeypatch.setattr(sources, "load_reference", counting_load)
        data = Path(__file__).resolve().parent / "data"
        workload = Workload.from_dict(
            {
                "input": {"kind": "reads", "path": str(data / "golden_reads.fastq"),
                          "reference": str(data / "golden_reference.fasta"), "seeding_k": 12},
                "filter": {"filter": "auto", "error_threshold": 3,
                           "planner": {"sample_pairs": 64}},
                "execution": {"chunk_size": 100},
            }
        )
        with Session() as session:
            result = session.run(workload)
        assert calls == {"KmerIndex": 1, "load_reference": 1}
        assert result.plan is not None
        assert result.plan[K.PROBE_PAIRS] == 64
        assert result.summary["n_pairs"] > 100


# --------------------------------------------------------------------------- #
# Determinism matrix
# --------------------------------------------------------------------------- #
class TestDeterminismMatrix:
    @pytest.fixture(scope="class")
    def baselines(self, session):
        return {
            "memory": session.run(Workload.from_dict(auto_workload("memory"))),
            "streaming": session.run(
                Workload.from_dict(auto_workload("streaming", chunk_size=512))
            ),
        }

    @pytest.mark.parametrize("kind", ["serial", "threads", "processes"])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_memory_runs_identical_across_backends(
        self, session, baselines, kind, workers
    ):
        result = session.run(
            Workload.from_dict(
                auto_workload("memory", executor=kind, workers=workers)
            )
        )
        assert canonical(result) == canonical(baselines["memory"])

    @pytest.mark.parametrize("workers", [2, 4])
    def test_streaming_runs_identical_across_backends(
        self, session, baselines, workers
    ):
        result = session.run(
            Workload.from_dict(
                auto_workload(
                    "streaming", chunk_size=512, executor="threads", workers=workers
                )
            )
        )
        assert canonical(result) == canonical(baselines["streaming"])

    def test_modes_agree_on_the_plan_and_the_decisions(self, baselines):
        memory, streaming = baselines["memory"], baselines["streaming"]
        assert memory.plan == streaming.plan
        assert memory.plan is not None
        assert memory.plan[K.PLANNER_VERSION] == PLANNER_VERSION
        assert memory.workload["filter"]["filters"] == memory.plan[K.CASCADE]
        assert memory.summary["n_accepted"] == streaming.summary["n_accepted"]

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_sharded_merge_matches_single_run(self, session, baselines, n_shards):
        plan = plan_shards(auto_workload("memory"), n_shards, session=session)
        shards = [
            session.run(Workload.from_dict(plan.shard_workload(i)))
            for i in range(n_shards)
        ]
        merged = merge_result_dicts(
            [(f"shard-{i}", shard.as_dict()) for i, shard in enumerate(shards)]
        )
        assert canonical(merged) == canonical(baselines["memory"])

    def test_planning_fanouts_leak_no_shared_memory(self, session, baselines):
        workload = Workload.from_dict(
            auto_workload("memory", executor="processes", workers=4)
        )
        session.run(workload)
        executor = session.executor_for(resolve_workload(session, workload))
        assert executor is not None
        assert executor.live_segments == 0

    def test_the_whole_matrix_planned_exactly_once(self, session, baselines):
        # Every run above shares one input identity and one knob set: the
        # session planned once and every later submission was a cache hit.
        assert session.cache_info["plans"] == 1


# --------------------------------------------------------------------------- #
# Never-false-reject: any planned cascade keeps every true positive
# --------------------------------------------------------------------------- #
BASES = "ACGT"


@st.composite
def cascade_cases(draw):
    names = draw(
        st.lists(
            st.sampled_from(sorted(available_filters())),
            min_size=1, max_size=3, unique=True,
        )
    )
    length = draw(st.integers(min_value=16, max_value=48))
    threshold = draw(st.integers(min_value=0, max_value=5))
    n_pairs = draw(st.integers(min_value=1, max_value=6))
    code = st.integers(min_value=0, max_value=3)
    pairs = []
    for _ in range(n_pairs):
        segment = [BASES[draw(code)] for _ in range(length)]
        read = list(segment)
        for position in draw(
            st.lists(
                st.integers(min_value=0, max_value=length - 1),
                max_size=threshold + 2, unique=True,
            )
        ):
            read[position] = BASES[draw(code)]
        pairs.append(("".join(read), "".join(segment)))
    return names, threshold, pairs


class TestNeverFalseReject:
    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(cascade_cases())
    def test_planned_cascades_never_reject_true_positives(self, case):
        names, threshold, pairs = case
        record = {K.CASCADE: list(names)}
        cascade = FilterCascade.from_plan(record, len(pairs[0][0]), threshold)
        result = cascade.filter_encoded(
            EncodedPairBatch.from_lists(
                [read for read, _ in pairs], [segment for _, segment in pairs]
            )
        )
        for i, (read, segment) in enumerate(pairs):
            if edit_distance(read, segment) <= threshold:
                assert result.accepted[i], (
                    f"{names} rejected a true positive at threshold {threshold}"
                )

    def test_from_plan_requires_a_stage_list(self):
        with pytest.raises(ValueError, match=K.CASCADE):
            FilterCascade.from_plan({}, 100, 3)


# --------------------------------------------------------------------------- #
# repro plan CLI
# --------------------------------------------------------------------------- #
AUTO_TOML = """\
[input]
kind = "dataset"
dataset = "Set 1"
n_pairs = 2000
seed = 7

[filter]
filter = "auto"
error_threshold = 3

[filter.planner]
sample_pairs = 256
false_accept_budget = 0.02

[execution]
mode = "memory"
verify = false
"""


class TestPlanCli:
    @pytest.fixture()
    def workload_file(self, tmp_path) -> Path:
        path = tmp_path / "auto.toml"
        path.write_text(AUTO_TOML)
        return path

    def test_json_emits_the_frozen_record(self, workload_file, capsys):
        from repro.cli import plan_main

        assert plan_main([str(workload_file), "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record[K.PLANNER_VERSION] == PLANNER_VERSION
        assert record[K.PROBE_PAIRS] == 256
        assert record[K.CASCADE]
        # The printed record is exactly what a resolved workload carries.
        FilterSpec(filters=tuple(record[K.CASCADE]), plan=record)

    def test_table_names_the_planned_cascade(self, workload_file, capsys):
        from repro.cli import plan_main

        assert plan_main([str(workload_file)]) == 0
        out = capsys.readouterr().out
        assert "Plan candidates" in out
        assert "planned cascade:" in out

    def test_non_auto_workload_is_a_usage_error(self, tmp_path, capsys):
        from repro.cli import plan_main

        path = tmp_path / "fixed.toml"
        path.write_text(AUTO_TOML.replace('filter = "auto"', 'filter = "shouji"')
                        .replace("[filter.planner]\n", "")
                        .replace("sample_pairs = 256\n", "")
                        .replace("false_accept_budget = 0.02\n", ""))
        with pytest.raises(SystemExit):
            plan_main([str(path)])
        assert "filter = 'auto'" in capsys.readouterr().err

    def test_umbrella_cli_knows_plan(self):
        from repro.cli import _COMMANDS

        assert "plan" in _COMMANDS


# --------------------------------------------------------------------------- #
# Serve: daemon-wide planner defaults
# --------------------------------------------------------------------------- #
class TestServeDefaults:
    def test_bad_defaults_fail_at_construction(self):
        from repro.serve.server import ReproServer

        with pytest.raises(ValueError, match="filter.planner.sample_pairs"):
            ReproServer(port=0, planner_defaults={"sample_pairs": 0})

    def test_defaults_apply_to_bare_auto_submissions(self):
        from repro.serve.client import ServeClient
        from repro.serve.server import ReproServer

        workload = auto_workload("memory")
        del workload["filter"]["planner"]
        server = ReproServer(
            port=0, planner_defaults={"sample_pairs": 128}
        ).start()
        try:
            client = ServeClient(port=server.port, timeout_s=120)
            result = client.run(workload)
        finally:
            server.stop()
        plan = (result["workload"]["filter"] or {}).get("plan")
        assert plan is not None and plan[K.SAMPLE_PAIRS] == 128
