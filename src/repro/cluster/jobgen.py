"""Job generation: run N shard workloads on a cluster (or pretend to).

Two generated artifacts, one contract: every job is just ``repro run`` on a
shard workload file, writing its Result JSON into the plan's ``out/``
directory.

* :func:`slurm_script` — a SLURM array submission (``sbatch submit_slurm.sh``)
  where task ``$SLURM_ARRAY_TASK_ID`` runs shard ``NNN``.
* :func:`local_script` — the same loop as plain POSIX sh, the "virtual
  cluster" for machines without a scheduler.
* :func:`run_local` — the programmatic virtual cluster: each shard in a
  subprocess (``python -m repro.cli run``), optionally several at a time,
  with a timeout guard.  This is what ``repro shard --run``, the cluster
  benchmark and the CI e2e step drive.
"""

from __future__ import annotations

import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Mapping, Sequence

from .errors import ClusterError

__all__ = ["shard_stem", "local_script", "slurm_script", "run_local"]


def shard_stem(index: int) -> str:
    """Canonical shard file stem: ``shard-007`` (three digits, grows as needed)."""
    return f"shard-{index:03d}"


_COMMON_PRELUDE = """\
PLAN_DIR="$(cd "$(dirname "$0")" && pwd)"
mkdir -p "${PLAN_DIR}/out"
"""


def local_script(n_shards: int) -> str:
    """A plain-sh virtual cluster: run every shard sequentially, then hint merge."""
    return (
        "#!/bin/sh\n"
        "# Local virtual cluster: every shard is an ordinary `repro run`.\n"
        "# Generated by `repro shard`.\n"
        "set -eu\n"
        + _COMMON_PRELUDE
        + f'for ID in $(seq 0 {n_shards - 1}); do\n'
        '  SHARD="$(printf \'shard-%03d\' "${ID}")"\n'
        '  repro run "${PLAN_DIR}/${SHARD}.json" '
        '--out "${PLAN_DIR}/out/${SHARD}.json" > /dev/null\n'
        '  echo "done: ${SHARD}"\n'
        "done\n"
        'echo "merge with: repro merge ${PLAN_DIR}/out/shard-*.json"\n'
    )


def slurm_script(
    n_shards: int,
    job_name: str = "repro-shards",
    time_limit: str = "01:00:00",
    cpus_per_task: int = 1,
) -> str:
    """A SLURM array submission: one array task per shard.

    Submit with ``sbatch submit_slurm.sh`` from anywhere — the script locates
    its own plan directory.  Each task is independent (shards share no
    state), so any partition/QOS works; merge the ``out/shard-*.json``
    results with ``repro merge`` once the array completes.
    """
    return (
        "#!/bin/bash\n"
        "# SLURM array submission generated by `repro shard --slurm`.\n"
        f"#SBATCH --job-name={job_name}\n"
        f"#SBATCH --array=0-{n_shards - 1}\n"
        "#SBATCH --nodes=1\n"
        "#SBATCH --ntasks=1\n"
        f"#SBATCH --cpus-per-task={cpus_per_task}\n"
        f"#SBATCH --time={time_limit}\n"
        "#SBATCH --output=%x-%A_%a.out\n"
        "set -euo pipefail\n"
        'PLAN_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"\n'
        'mkdir -p "${PLAN_DIR}/out"\n'
        'SHARD="$(printf \'shard-%03d\' "${SLURM_ARRAY_TASK_ID}")"\n'
        'repro run "${PLAN_DIR}/${SHARD}.json" '
        '--out "${PLAN_DIR}/out/${SHARD}.json" > /dev/null\n'
    )


def _run_one(
    shard_file: Path,
    result_file: Path,
    timeout_s: "float | None",
    env: "Mapping[str, str] | None",
) -> Path:
    command = [
        sys.executable,
        "-m",
        "repro.cli",
        "run",
        str(shard_file),
        "--out",
        str(result_file),
    ]
    try:
        proc = subprocess.run(
            command,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=timeout_s,
            env=dict(env) if env is not None else None,
        )
    except subprocess.TimeoutExpired as exc:
        raise ClusterError(
            f"{shard_file.name}: shard run exceeded the {timeout_s}s timeout"
        ) from exc
    if proc.returncode != 0:
        stderr_tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        raise ClusterError(
            f"{shard_file.name}: shard run failed with exit code "
            f"{proc.returncode}: {' | '.join(stderr_tail) or '(no stderr)'}"
        )
    return result_file


def run_local(
    shard_files: "Sequence[str | Path]",
    results_dir: "str | Path",
    jobs: int = 1,
    timeout_s: "float | None" = None,
    env: "Mapping[str, str] | None" = None,
) -> "list[Path]":
    """Run every shard workload in a subprocess; return the result paths.

    The programmatic virtual cluster: each shard is an independent
    ``python -m repro.cli run shard.json --out out/shard.json`` process —
    exactly what a SLURM array task executes — so shard/merge identity
    proven here transfers to a real scheduler.  ``jobs > 1`` runs that many
    shards concurrently; ``timeout_s`` (positive seconds) bounds each
    shard's wall clock.  Failures raise :class:`ClusterError` naming the
    shard file.
    """
    if not shard_files:
        raise ClusterError("no shard workload files to run")
    if jobs < 1:
        raise ClusterError("jobs: must be at least 1")
    if timeout_s is not None and timeout_s <= 0:
        raise ClusterError(f"timeout_s: must be positive (got {timeout_s})")
    results_dir = Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    tasks: "list[tuple[Path, Path]]" = [
        (Path(shard_file), results_dir / Path(shard_file).name)
        for shard_file in shard_files
    ]
    if jobs == 1:
        return [
            _run_one(shard_file, result_file, timeout_s, env)
            for shard_file, result_file in tasks
        ]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [
            pool.submit(_run_one, shard_file, result_file, timeout_s, env)
            for shard_file, result_file in tasks
        ]
        return [future.result() for future in futures]
