"""Tests for the repo-invariant linter (``repro.analysis.lint``).

Every rule is proven both ways — a fixture snippet that must trigger it and a
neighbouring compliant snippet that must not — plus waiver handling, the
versioned ``--json`` payload, the CLI contract, and the self-lint gate: the
repo's own ``src/`` tree must be clean.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.lint import (
    ALL_RULES,
    LINT_SCHEMA_VERSION,
    RULES_BY_ID,
    lint_paths,
    lint_source,
    module_path,
)
from repro.analysis.lint.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: (rule-id, path the snippet pretends to live at, failing snippet, passing
#: snippet).  Paths matter: most rules are scoped to specific packages.
FIXTURES = [
    (
        "encode-once",
        "src/repro/exec/somewhere.py",
        "codes, undef = encode_batch_codes(reads)\n",
        "batch = pairs.select(keep)\n",
    ),
    (
        "encode-once",
        "src/repro/runtime/somewhere.py",
        "batch = EncodedPairBatch(reads, refs, undefined)\n",
        "batch = EncodedPairBatch.from_lists(reads, refs)\n",
    ),
    (
        "partition-invariant-reduction",
        "src/repro/exec/reduce.py",
        (
            "total = 0.0\n"
            "for outcome in outcomes:\n"
            "    total += outcome.kernel_time_s\n"
        ),
        (
            "total = 0\n"
            "for outcome in outcomes:\n"
            "    total += outcome.n_accepted\n"
        ),
    ),
    (
        "partition-invariant-reduction",
        "src/repro/engine/reduce.py",
        "total = sum(o.n_batches for o in outcomes)\n",
        "n_batches = expected_n_batches(config, n_pairs)\n",
    ),
    (
        "shm-lifecycle",
        "src/repro/exec/transport.py",
        (
            "def export(size):\n"
            "    segment = SharedMemory(create=True, size=size)\n"
            "    return segment\n"
        ),
        (
            "def export(size):\n"
            "    segment = SharedMemory(create=True, size=size)\n"
            "    try:\n"
            "        fill(segment)\n"
            "    except BaseException:\n"
            "        segment.close()\n"
            "        segment.unlink()\n"
            "        raise\n"
            "    return segment\n"
        ),
    ),
    (
        "shm-lifecycle",
        "src/repro/exec/worker.py",
        (
            "def attach(name):\n"
            "    segment = SharedMemory(name=name)\n"
            "    use(segment)\n"
            "    segment.unlink()\n"
        ),
        (
            "def attach(name):\n"
            "    segment = SharedMemory(name=name)\n"
            "    try:\n"
            "        use(segment)\n"
            "    finally:\n"
            "        segment.close()\n"
        ),
    ),
    (
        "determinism-hazards",
        "src/repro/engine/timing.py",
        "start = time.time()\n",
        "start = time.perf_counter()\n",
    ),
    (
        "determinism-hazards",
        "src/repro/simulate/gen.py",
        "value = random.random()\n",
        "value = random.Random(seed).random()\n",
    ),
    (
        "determinism-hazards",
        "src/repro/simulate/gen2.py",
        "values = np.random.randint(0, 4, size=10)\n",
        "values = np.random.default_rng(seed).integers(0, 4, size=10)\n",
    ),
    (
        "determinism-hazards",
        "src/repro/exec/order.py",
        "for name in {'a', 'b'}:\n    handle(name)\n",
        "for name in sorted({'a', 'b'}):\n    handle(name)\n",
    ),
    (
        "result-schema-keys",
        "src/repro/api/build.py",
        "summary = {'n_accepted': 3}\n",
        "summary = {K.N_ACCEPTED: 3}\n",
    ),
    (
        "result-schema-keys",
        "src/repro/engine/rows.py",
        "row['kernel_time_s'] = 0.5\n",
        "row[K.KERNEL_TIME_S] = 0.5\n",
    ),
    (
        "native-kernel-parity",
        "src/repro/filters/native/_register.py",
        'register_fallback("popcount", _packed.count_set_bits)\n',
        'register_fallback("popcount", _packed.popcount)\n',
    ),
    (
        "native-kernel-parity",
        "src/repro/engine/fast.py",
        "from numba import njit\n",
        "from ..filters.native import resolve\n",
    ),
    (
        "planner-pinned-before-fanout",
        "src/repro/api/fanout.py",
        (
            "def executor_for(self, workload):\n"
            "    return create_executor(workload.execution)\n"
        ),
        (
            "def executor_for(self, workload):\n"
            "    ensure_resolved(workload)\n"
            "    return create_executor(workload.execution)\n"
        ),
    ),
    (
        "planner-pinned-before-fanout",
        "src/repro/cluster/shards.py",
        (
            "def plan(workload, n):\n"
            "    return ShardPlan(workload=workload, n_shards=n)\n"
        ),
        (
            "def plan(workload, n):\n"
            "    workload = resolve_workload(session, workload)\n"
            "    return ShardPlan(workload=workload, n_shards=n)\n"
        ),
    ),
    (
        "result-schema-keys",
        "src/repro/planner/emit.py",
        "record = {'planner_version': 1}\n",
        "record = {K.PLANNER_VERSION: 1}\n",
    ),
]


def rules_hit(source: str, path: str) -> set[str]:
    return {violation.rule for violation in lint_source(source, path)}


class TestFixtures:
    @pytest.mark.parametrize(
        "rule_id, path, bad, good",
        FIXTURES,
        ids=[f"{rule}:{Path(path).stem}" for rule, path, _, _ in FIXTURES],
    )
    def test_failing_fixture_triggers_rule(self, rule_id, path, bad, good):
        assert rule_id in rules_hit(bad, path)

    @pytest.mark.parametrize(
        "rule_id, path, bad, good",
        FIXTURES,
        ids=[f"{rule}:{Path(path).stem}" for rule, path, _, _ in FIXTURES],
    )
    def test_passing_fixture_is_clean(self, rule_id, path, bad, good):
        assert rule_id not in rules_hit(good, path)

    def test_every_rule_has_a_failing_fixture(self):
        covered = {rule_id for rule_id, _, _, _ in FIXTURES}
        assert covered == set(RULES_BY_ID)


class TestScoping:
    def test_module_path_normalisation(self):
        assert module_path("src/repro/exec/fanout.py") == "repro/exec/fanout.py"
        assert module_path("/abs/src/repro/api/result.py") == "repro/api/result.py"
        assert module_path("repro/cli.py") == "repro/cli.py"
        assert module_path("scripts/tool.py") == "tool.py"

    def test_ingest_seams_may_encode(self):
        source = "codes, undef = encode_batch_codes(reads)\n"
        assert "encode-once" not in rules_hit(source, "src/repro/genomics/encoding.py")
        assert "encode-once" in rules_hit(source, "src/repro/engine/engine.py")
        assert "encode-once" in rules_hit(source, "src/repro/core/preprocess.py")

    def test_rules_ignore_files_outside_the_package(self):
        source = "start = time.time()\n"
        assert rules_hit(source, "benchmarks/bench.py") == set()

    def test_schema_keys_rule_scoped_to_api_and_engine(self):
        source = "summary = {'n_accepted': 3}\n"
        assert "result-schema-keys" in rules_hit(source, "src/repro/api/x.py")
        assert "result-schema-keys" not in rules_hit(source, "src/repro/exec/x.py")

    def test_numba_import_allowed_in_native_package(self):
        source = "from numba import njit\n"
        assert "native-kernel-parity" not in rules_hit(
            source, "src/repro/filters/native/_kernels.py"
        )
        assert "native-kernel-parity" in rules_hit(
            source, "src/repro/filters/packed.py"
        )

    def test_planner_guard_after_fanout_is_flagged(self):
        source = (
            "def run(workload):\n"
            "    ex = create_executor(workload.execution)\n"
            "    ensure_resolved(workload)\n"
            "    return ex\n"
        )
        assert "planner-pinned-before-fanout" in rules_hit(
            source, "src/repro/api/x.py"
        )

    def test_planner_guard_in_outer_function_does_not_cover_closure(self):
        source = (
            "def run(workload):\n"
            "    ensure_resolved(workload)\n"
            "    def fan_out():\n"
            "        return create_executor(workload.execution)\n"
            "    return fan_out()\n"
        )
        assert "planner-pinned-before-fanout" in rules_hit(
            source, "src/repro/api/x.py"
        )

    def test_planner_rule_scoped_to_api_and_cluster(self):
        source = (
            "def run(workload):\n"
            "    return create_executor(workload.execution)\n"
        )
        assert "planner-pinned-before-fanout" not in rules_hit(
            source, "src/repro/exec/fanout.py"
        )

    def test_schema_keys_rule_covers_planner_package(self):
        source = "record = {'probe_cost_s': 0.5}\n"
        assert "result-schema-keys" in rules_hit(
            source, "src/repro/planner/x.py"
        )

    def test_lambda_fallback_registration_is_flagged(self):
        source = 'register_fallback("popcount", lambda x: x)\n'
        assert "native-kernel-parity" in rules_hit(
            source, "src/repro/filters/native/_register.py"
        )


class TestWaivers:
    def test_waiver_suppresses_the_named_rule(self):
        source = "start = time.time()  # reprolint: disable=determinism-hazards\n"
        assert rules_hit(source, "src/repro/engine/x.py") == set()

    def test_waiver_for_other_rule_does_not_suppress(self):
        source = "start = time.time()  # reprolint: disable=encode-once\n"
        assert "determinism-hazards" in rules_hit(source, "src/repro/engine/x.py")

    def test_disable_all(self):
        source = "start = time.time()  # reprolint: disable=all\n"
        assert rules_hit(source, "src/repro/engine/x.py") == set()

    def test_waiver_applies_across_a_multiline_statement(self):
        source = (
            "summary = {  # reprolint: disable=result-schema-keys\n"
            "    'n_accepted': 3,\n"
            "}\n"
        )
        assert rules_hit(source, "src/repro/api/x.py") == set()

    def test_waiver_line_scoped(self):
        source = (
            "a = time.time()  # reprolint: disable=determinism-hazards\n"
            "b = time.time()\n"
        )
        violations = lint_source(source, "src/repro/engine/x.py")
        assert [v.line for v in violations] == [2]


class TestSyntaxErrors:
    def test_unparsable_file_is_reported_not_crashed(self):
        violations = lint_source("def broken(:\n", "src/repro/exec/x.py")
        assert [v.rule for v in violations] == ["syntax-error"]


class TestReport:
    def test_violation_format(self):
        violations = lint_source("start = time.time()\n", "src/repro/engine/x.py")
        assert len(violations) == 1
        line = violations[0].format()
        assert line.startswith("src/repro/engine/x.py:1:")
        assert "determinism-hazards" in line

    def test_json_schema(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "engine" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("start = time.time()\n")
        report = lint_paths([tmp_path])
        payload = report.as_dict()
        assert payload["schema_version"] == LINT_SCHEMA_VERSION
        assert payload["n_files"] == 1
        assert payload["n_violations"] == 1
        assert {rule["id"] for rule in payload["rules"]} == set(RULES_BY_ID)
        assert all(rule["contract"] for rule in payload["rules"])
        violation = payload["violations"][0]
        assert set(violation) == {"rule", "path", "line", "col", "message"}
        # The payload round-trips through JSON.
        assert json.loads(report.to_json()) == payload

    def test_clean_tree_report(self, tmp_path):
        good = tmp_path / "src" / "repro" / "engine" / "good.py"
        good.parent.mkdir(parents=True)
        good.write_text("start = time.perf_counter()\n")
        report = lint_paths([tmp_path])
        assert report.ok
        assert report.n_files == 1


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "repro" / "exec" / "ok.py"
        good.parent.mkdir(parents=True)
        good.write_text("x = 1\n")
        assert lint_main([str(tmp_path)]) == 0
        assert capsys.readouterr().out == ""

    def test_violations_exit_one_with_findings_on_stdout(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "engine" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("start = time.time()\n")
        assert lint_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "determinism-hazards" in out

    def test_json_flag(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "engine" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("start = time.time()\n")
        assert lint_main([str(tmp_path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == LINT_SCHEMA_VERSION
        assert payload["n_violations"] == 1

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.rule_id in out

    def test_select_limits_rules(self, tmp_path):
        bad = tmp_path / "repro" / "engine" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("start = time.time()\n")
        assert lint_main([str(tmp_path), "--select", "encode-once"]) == 0
        assert lint_main([str(tmp_path), "--select", "determinism-hazards"]) == 1

    def test_disable_skips_rules(self, tmp_path):
        bad = tmp_path / "repro" / "engine" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("start = time.time()\n")
        assert lint_main([str(tmp_path), "--disable", "determinism-hazards"]) == 0

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        assert lint_main([str(tmp_path), "--select", "no-such-rule"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, capsys):
        assert lint_main(["definitely/not/here"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_python_m_entry_point(self, tmp_path):
        bad = tmp_path / "repro" / "engine" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("start = time.time()\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint", str(tmp_path)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"},
        )
        assert proc.returncode == 1
        assert "determinism-hazards" in proc.stdout

    def test_repro_lint_subcommand(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        good = tmp_path / "repro" / "exec" / "ok.py"
        good.parent.mkdir(parents=True)
        good.write_text("x = 1\n")
        assert repro_main(["lint", str(tmp_path)]) == 0


class TestSelfLint:
    def test_repo_src_tree_is_clean(self):
        report = lint_paths([SRC])
        details = "\n".join(v.format() for v in report.violations)
        assert report.ok, f"repo tree has lint violations:\n{details}"
        # Sanity: the sweep actually covered the package.
        assert report.n_files > 50
