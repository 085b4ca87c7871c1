"""`repro shard` / `repro merge` end-to-end: the CLI chain reproduces `repro run`.

The ``--run`` path exercises the real virtual cluster — every shard executes
in its own ``python -m repro.cli run`` subprocess, exactly what a SLURM array
task would do — so these tests prove the identity contract across process
boundaries, not just in-process.
"""

import json
import subprocess
import sys

import pytest

from repro.cli import main, run_main
from repro.cluster import ClusterError, jobgen
from repro.cluster.cli import merge_main, shard_main


@pytest.fixture()
def workload_file(tmp_path):
    path = tmp_path / "wl.json"
    path.write_text(json.dumps({
        "input": {"kind": "dataset", "dataset": "Set 1", "n_pairs": 200, "seed": 1},
        "filter": {"filter": "gatekeeper-gpu", "error_threshold": 3},
        "execution": {"mode": "memory", "verify": True},
    }))
    return path


def single_run_json(workload_file, tmp_path, capsys):
    out = tmp_path / "single.json"
    assert run_main([str(workload_file), "--out", str(out)]) == 0
    capsys.readouterr()
    return out.read_text()


class TestShardCli:
    def test_shard_run_merge_identity(self, workload_file, tmp_path, capsys):
        single = single_run_json(workload_file, tmp_path, capsys)
        # Shard, run on the subprocess virtual cluster, merge - one command.
        assert shard_main([
            str(workload_file), "--shards", "3", "--run", "--jobs", "2",
            "--timeout", "300",
        ]) == 0
        merged = capsys.readouterr().out
        assert merged == single

        plan_dir = tmp_path / "wl.shards"
        assert (plan_dir / "manifest.json").exists()
        assert (plan_dir / "run_local.sh").exists()

        # The standalone merge over the per-shard result files agrees too.
        shard_results = sorted(str(p) for p in (plan_dir / "out").glob("shard-*.json"))
        assert len(shard_results) == 3
        merged_out = tmp_path / "merged.json"
        assert merge_main(
            shard_results
            + ["--manifest", str(plan_dir / "manifest.json"), "--out", str(merged_out)]
        ) == 0
        assert capsys.readouterr().out == single
        assert merged_out.read_text() == single

    def test_plan_only_writes_scripts(self, workload_file, tmp_path, capsys):
        out_dir = tmp_path / "plan"
        assert shard_main([
            str(workload_file), "--shards", "2", "--out-dir", str(out_dir), "--slurm",
        ]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""  # no result without --run
        assert "planned 2 shard(s)" in captured.err
        assert "#SBATCH --array=0-1" in (out_dir / "submit_slurm.sh").read_text()
        shard = json.loads((out_dir / "shard-001.json").read_text())
        assert shard["execution"]["shard"]["index"] == 1

    def test_umbrella_dispatch(self, workload_file, tmp_path, capsys):
        out_dir = tmp_path / "plan"
        assert main([
            "shard", str(workload_file), "--shards", "2", "--out-dir", str(out_dir),
        ]) == 0
        assert (out_dir / "shard-000.json").exists()

    def test_shard_errors_are_cli_errors(self, workload_file, capsys):
        with pytest.raises(SystemExit):
            shard_main([str(workload_file), "--shards", "0"])
        capsys.readouterr()
        with pytest.raises(SystemExit):
            shard_main([str(workload_file), "--shards", "9999"])
        assert "exceeds" in capsys.readouterr().err


class TestRunLocalTimeout:
    """A non-positive timeout is refused before any shard subprocess starts."""

    @pytest.fixture()
    def no_subprocess(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a shard subprocess was started")

        monkeypatch.setattr(jobgen.subprocess, "run", fail)

    @pytest.mark.parametrize("timeout_s", [0, -1.0])
    def test_run_local_rejects_non_positive_timeout(self, no_subprocess, tmp_path, timeout_s):
        with pytest.raises(ClusterError, match="timeout_s"):
            jobgen.run_local([tmp_path / "shard-000.json"], tmp_path / "out", timeout_s=timeout_s)

    def test_shard_run_timeout_zero_is_a_cli_error(self, no_subprocess, workload_file, capsys):
        with pytest.raises(SystemExit):
            shard_main([str(workload_file), "--shards", "2", "--run", "--timeout", "0"])
        assert "timeout_s: must be positive" in capsys.readouterr().err


class TestMergeCli:
    def test_merge_rejects_non_shard_input(self, workload_file, tmp_path, capsys):
        single = tmp_path / "single.json"
        assert run_main([str(workload_file), "--out", str(single)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit):
            merge_main([str(single)])
        assert "missing 'shard'" in capsys.readouterr().err

    def test_merge_rejects_truncated_file(self, tmp_path, capsys):
        bad = tmp_path / "shard-000.json"
        bad.write_text('{"schema_version": 1, "kind": "filt')
        with pytest.raises(SystemExit):
            merge_main([str(bad)])
        assert "invalid JSON" in capsys.readouterr().err


def test_module_invocation_subprocess(workload_file, tmp_path):
    """One full chain through `python -m repro.cli` child processes."""
    env_run = subprocess.run(
        [sys.executable, "-m", "repro.cli", "shard", str(workload_file),
         "--shards", "2", "--run"],
        capture_output=True, text=True, timeout=600,
    )
    assert env_run.returncode == 0, env_run.stderr
    merged = json.loads(env_run.stdout)
    assert merged["schema_version"] == 1
    assert merged["summary"]["n_pairs"] == 200
    assert "shard" not in merged
