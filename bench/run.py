"""One end-to-end benchmark of the GateKeeper-GPU reproduction.

Usage (from the repository root)::

    python3 bench/run.py --seed 7 [--seconds 15] [--workload NAME ...] [--trace [0|1]]
                         [--cold-starts N] [--out FILE]

With one ``--workload`` the workload runs in this interpreter; with several
(or none: all four) each runs in a fresh child interpreter, so memory and
caches stay separate.  Every metric is printed by name with its unit, and the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` (the default)
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` reports
its per-layer metrics from a traced run and writes the spans to
``bench/.out/trace-<workload>.json``.  A workload that raises is counted as
failed; the others still run, the result line is still printed, and the
exit status is 1.

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import traceback
from pathlib import Path
from typing import Any

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DETAIL = "# bench detail "
HEADER = "# bench header "


def parse_args(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads.NAMES,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=7, help="seed of every generated input")
    parser.add_argument("--seconds", "--duration", type=float, default=SPEC["run_seconds"],
                        help="length of the measured window in seconds "
                             f"(default: {SPEC['run_seconds']}, from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--cold-starts", type=int, default=workloads.COLD_STARTS,
                        help=f"cold starts whose median is setup_s (default: {workloads.COLD_STARTS})")
    parser.add_argument("--out", type=Path, help="also write header and results as JSON here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.cold_starts < 1:
        parser.error("--cold-starts must be at least 1")
    args.workload = list(dict.fromkeys(args.workload or workloads.NAMES))
    return args


def header(args: argparse.Namespace) -> dict[str, Any]:
    """Where and how the numbers were taken."""
    import numpy

    from repro.filters.native import active_tier

    try:
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)), timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {
        "seed": args.seed,
        "git_rev": rev,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel_tier": active_tier("auto"),
        "seconds": args.seconds,
        "warmup_s": min(workloads.WARMUP_S, args.seconds),
        "cold_starts": args.cold_starts,
        "trace": args.trace,
    }


def metric_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, in BENCHMARK.json order."""
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


def run_one(args: argparse.Namespace, name: str) -> dict[str, Any]:
    """Run one workload in this interpreter, print its lines, return its detail."""
    workdir = (BENCH / ".work" / f"{name}-{args.seed}").relative_to(ROOT)
    outdir = (BENCH / ".out").relative_to(ROOT)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    outdir.mkdir(exist_ok=True)
    try:
        outcome = workloads.run(name, args.seed, args.seconds, bool(args.trace),
                                args.cold_starts, workdir, outdir / f"trace-{name}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = metric_units(args.trace)
    missing = set(units) - set(outcome.metrics)
    if missing:
        raise RuntimeError(f"{name}: metrics not measured: {sorted(missing)}")
    for metric, unit in units.items():
        print(f"{name:<15} {metric:<36} {outcome.metrics[metric]:>16.6g} {unit}")
    error_rate = outcome.failed / outcome.attempted
    print(f"{name:<15} {'error_rate':<36} {error_rate:>16.6g} fraction "
          f"({outcome.failed} of {outcome.attempted} operations, {outcome.samples} timed)")
    for key, value in outcome.info.items():
        print(f"{name:<15} {key:<36} {value:>16.6g} {workloads.INFO_UNITS[key]} "
              "(no bound: see bench/README.md)")
    for key, value in outcome.modelled.items():
        print(f"{name:<15} {key:<36} {value:>16.6g} s (model output, not measured)")
    for problem in outcome.problems:
        print(f"{name:<15} CHECK FAILED: {problem}")
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "error_rate": error_rate,
        "samples": outcome.samples,
        "metrics": {m: {"value": outcome.metrics[m], "unit": u} for m, u in units.items()},
        "exact": outcome.exact,
        "hashes": outcome.hashes,
        "info": outcome.info,
        "modelled": outcome.modelled,
        "problems": outcome.problems,
        "trace_file": outcome.trace_file,
    }


def failed(name: str, problem: str) -> dict[str, Any]:
    """The detail of a workload that raised instead of finishing."""
    print(f"{name:<15} FAILED: {problem}", flush=True)
    return {"correct": False, "attempted": 1, "failed": 1, "error_rate": 1.0, "samples": 0,
            "metrics": {}, "exact": {}, "hashes": {}, "info": {}, "modelled": {},
            "problems": [problem], "trace_file": None}


def run_guarded(args: argparse.Namespace, name: str) -> dict[str, Any]:
    """:func:`run_one`, with an exception counted as a failed workload."""
    try:
        return run_one(args, name)
    except Exception as exc:  # noqa: BLE001 - reported, and the other workloads still run
        traceback.print_exc()
        return failed(name, f"{type(exc).__name__}: {exc}")


def run_child(args: argparse.Namespace, name: str) -> dict[str, Any]:
    """Run one workload in a fresh interpreter and relay its output."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--cold-starts", str(args.cold_starts)]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=900)
        except subprocess.TimeoutExpired:
            stdout = ""
        finally:
            # SIGTERM, not SIGKILL: the child must still stop its daemons.
            if proc.poll() is None:
                proc.terminate()
                proc.wait()
    detail = None
    for line in stdout.splitlines()[:-1]:
        if line.startswith(DETAIL):
            detail = json.loads(line[len(DETAIL):])
        elif not line.startswith(HEADER):
            print(line, flush=True)
    if detail is None:
        return failed(name, f"child exited with status {proc.returncode} and no result")
    return detail


def main(argv: "list[str] | None" = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    args = parse_args(argv)
    if args.out is not None:
        args.out = args.out.resolve()
    # Inputs and outputs live under the repository root, named relative to
    # it, so generated workloads hash identically from any checkout.
    os.chdir(ROOT)
    # SIGTERM unwinds like an exception, so daemons are stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    head = header(args)
    print(HEADER + json.dumps(head, sort_keys=True), flush=True)
    if len(args.workload) == 1:
        details = {args.workload[0]: run_guarded(args, args.workload[0])}
        print(DETAIL + json.dumps(details[args.workload[0]], sort_keys=True))
    else:
        details = {name: run_child(args, name) for name in args.workload}

    if args.out is not None:
        args.out.write_text(json.dumps({"header": head, "workloads": details}, indent=2,
                                       sort_keys=True) + "\n")
    summary = {
        "correct": all(d["correct"] for d in details.values()),
        "attempted": sum(d["attempted"] for d in details.values()),
        "failed": sum(d["failed"] for d in details.values()),
    }
    if len(details) == 1:
        summary["metrics"] = next(iter(details.values()))["metrics"]
    else:
        summary["metrics"] = {name: d["metrics"] for name, d in details.items()}
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
