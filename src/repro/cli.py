"""Command line entry points — thin adapters over :class:`repro.api.Session`.

Five commands are installed with the package:

``repro``
    The front door: ``repro run workload.toml`` executes a declarative
    :class:`~repro.api.Workload` file and prints the canonical JSON
    :class:`~repro.api.Result`; ``repro filter|map|stream|experiment ...``
    dispatch to the subcommands below, and ``repro serve`` / ``repro submit``
    run the resident filter-as-a-service daemon and its submission client
    (:mod:`repro.serve`) — ``repro submit workload.toml`` prints JSON
    byte-identical to ``repro run workload.toml``.  ``repro shard`` /
    ``repro merge`` split a workload into cluster shard jobs and reduce the
    per-shard results back into the single-run report (:mod:`repro.cluster`).
    ``repro plan`` prints the adaptive planner's cascade choice for a
    ``filter = "auto"`` workload without executing it (:mod:`repro.planner`).
``repro-filter``
    Filter a simulated candidate-pair pool with any registered filter
    (``--filter``) or cascade (``--cascade``).
``repro-map``
    Run the mrFAST-like mapper over a simulated read set with or without the
    pre-alignment filter.
``repro-experiment``
    Regenerate one of the paper's tables / figures by name.
``repro-stream``
    Stream a real FASTQ/FASTA read file (seeded against a reference) or a
    pairs TSV through the chunked, bounded-memory streaming runtime.

Every filtering/mapping command builds a :class:`~repro.api.Workload` from
its flags and executes it on a :class:`~repro.api.Session`, so a legacy-flag
invocation with ``--json`` and ``repro run`` on the equivalent workload file
print byte-identical reports (locked down by
``tests/test_api_cli_equivalence.py``).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Sequence

from .api import Result, Session, Workload
from .api.defaults import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_ERROR_THRESHOLD,
    DEFAULT_MAX_CANDIDATES_PER_READ,
    DEFAULT_N_PAIRS,
    DEFAULT_READ_LENGTH,
    DEFAULT_SEEDING_K,
)
from .analysis import format_table

__all__ = [
    "main",
    "run_main",
    "plan_main",
    "filter_main",
    "map_main",
    "experiment_main",
    "stream_main",
    "lint_main",
    "serve_main",
    "submit_main",
    "shard_main",
    "merge_main",
]


# --------------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------------- #
def _filter_section(parser, args) -> dict:
    """The workload ``filter`` section from ``--filter`` / ``--cascade`` flags."""
    if getattr(args, "cascade", None):
        names = [name.strip() for name in args.cascade.split(",") if name.strip()]
        if len(names) < 2:
            parser.error("--cascade needs at least two comma-separated filter names")
        return {"filters": names, "error_threshold": args.error_threshold}
    return {"filter": args.filter, "error_threshold": args.error_threshold}


def _add_executor_flags(parser, streaming: bool = False) -> None:
    """The execution-backend flags shared by repro-filter and repro-stream."""
    parser.add_argument(
        "--executor",
        choices=["serial", "threads", "processes"],
        default="serial",
        help="execution backend for the filtration (default: serial)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker count for the threads/processes backends (default: 1)",
    )
    parser.add_argument(
        "--kernel-tier",
        choices=["auto", "numpy", "native"],
        default="auto",
        help="filter kernel implementation: Numba-compiled when available "
        "(auto/native) or the pure-NumPy reference (numpy); decisions are "
        "identical either way (default: auto)",
    )
    if streaming:
        parser.add_argument(
            "--prefetch", action="store_true",
            help="parse+encode chunk N+1 in a producer thread while chunk N filters",
        )


def _run_workload(parser, workload_dict: dict, session: Session | None = None) -> Result:
    """Validate + execute a workload dict, reporting failures as CLI errors.

    A session created here is closed before returning, so worker pools from
    ``--executor threads|processes`` never outlive the command.
    """
    try:
        workload = Workload.from_dict(workload_dict)
        if session is not None:
            return session.run(workload)
        with Session() as own_session:
            return own_session.run(workload)
    except (OSError, ValueError, KeyError) as exc:
        parser.error(str(exc))


def _emit_json(result: Result) -> int:
    sys.stdout.write(result.to_json())
    return 0


def _print_filter_tables(result: Result) -> int:
    print(format_table([result.summary], title=f"{result.filter} on {result.dataset}"))
    if result.stages:
        print()
        print(format_table(result.stages, title="Per-stage accounting"))
    return 0


def _print_stream_tables(result: Result) -> int:
    print(format_table([result.summary], title=f"{result.filter} on {result.dataset}"))
    print()
    print(format_table([result.streaming], title="Streaming execution"))
    if result.chunks:
        print()
        print(format_table(result.chunks, title="Per-chunk accounting"))
        n_chunks = result.streaming["n_chunks"]
        if n_chunks > len(result.chunks):
            print(f"... showing first {len(result.chunks)} of {n_chunks} chunks")
    return 0


def _print_mapping_tables(result: Result) -> int:
    print(format_table(result.rows, title="Whole-genome mapping information"))
    return 0


# --------------------------------------------------------------------------- #
# repro run
# --------------------------------------------------------------------------- #
def run_main(argv: Sequence[str] | None = None) -> int:
    """Execute a declarative workload file (the ``repro run`` subcommand)."""
    parser = argparse.ArgumentParser(
        prog="repro run",
        description="Execute a declarative TOML/JSON workload via repro.api.Session",
    )
    parser.add_argument("workload", help="path to a .toml or .json workload file")
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the JSON report to this file",
    )
    parser.add_argument(
        "--table", action="store_true",
        help="print human-readable tables instead of the JSON report",
    )
    parser.add_argument(
        "--kernel-tier",
        choices=["auto", "numpy", "native"],
        default=None,
        help="override the workload's execution.kernel_tier for this run",
    )
    args = parser.parse_args(argv)

    try:
        workload = Workload.from_file(args.workload)
        if args.kernel_tier is not None:
            workload = workload.replace(
                execution=dataclasses.replace(workload.execution, kernel_tier=args.kernel_tier)
            )
        with Session() as session:
            result = session.run(workload)
    except (OSError, ValueError, KeyError) as exc:
        parser.error(str(exc))
    if args.table:
        if result.kind == "mapping":
            _print_mapping_tables(result)
        elif result.streaming is not None:
            _print_stream_tables(result)
        else:
            _print_filter_tables(result)
    else:
        _emit_json(result)
    if args.out:
        # After emitting, so a bad --out path cannot swallow the report.
        try:
            Path(args.out).write_text(result.to_json())
        except OSError as exc:
            parser.error(f"--out: {exc}")
    return 0


# --------------------------------------------------------------------------- #
# repro plan
# --------------------------------------------------------------------------- #
def plan_main(argv: Sequence[str] | None = None) -> int:
    """Print the planner's decision for a ``filter = "auto"`` workload."""
    import json

    parser = argparse.ArgumentParser(
        prog="repro plan",
        description=(
            "Probe a filter='auto' workload and print the planned cascade "
            "with every candidate's cost-model estimates, without executing "
            "the run"
        ),
    )
    parser.add_argument("workload", help="path to a .toml or .json workload file")
    parser.add_argument(
        "--json", action="store_true",
        help="emit the frozen plan record (the future workload.filter.plan) as JSON",
    )
    args = parser.parse_args(argv)

    from .planner import plan_workload

    try:
        workload = Workload.from_file(args.workload)
        if not workload.filter.is_auto:
            parser.error(
                "workload.filter.filters: repro plan requires filter = 'auto' "
                f"(got {list(workload.filter.filters)})"
            )
        with Session() as session:
            plan = plan_workload(session, workload)
    except (OSError, ValueError, KeyError) as exc:
        parser.error(str(exc))
    if args.json:
        sys.stdout.write(json.dumps(plan.record(), indent=2, sort_keys=True) + "\n")
        return 0
    rows = [
        {
            "cascade": " -> ".join(candidate.cascade),
            "probe_accepts": candidate.probe_accepts,
            "est_accepts": candidate.est_accepts,
            "est_cost_s": round(candidate.est_cost_s, 6),
            "admissible": candidate.admissible,
            "chosen": "*" if candidate.chosen else "",
        }
        for candidate in sorted(plan.candidates, key=lambda c: c.est_cost_s)
    ]
    print(format_table(rows, title=f"Plan candidates ({workload.input.display_name()})"))
    print()
    print(
        f"planned cascade: {' -> '.join(plan.cascade)}  "
        f"[probe {plan.probe_pairs} of {plan.total_pairs} pairs, "
        f"est cost {plan.est_cost_s:.6f}s, est accepts {plan.est_accepts}]"
    )
    return 0


# --------------------------------------------------------------------------- #
# repro-filter
# --------------------------------------------------------------------------- #
def filter_main(argv: Sequence[str] | None = None) -> int:
    from .engine import available_filters
    from .simulate.datasets import PAPER_DATASETS

    parser = argparse.ArgumentParser(
        description="Pre-alignment filtering with any registered filter or cascade"
    )
    parser.add_argument("--dataset", default="Set 1", choices=sorted(PAPER_DATASETS))
    parser.add_argument("--pairs", type=int, default=DEFAULT_N_PAIRS)
    parser.add_argument("--error-threshold", type=int, default=DEFAULT_ERROR_THRESHOLD)
    parser.add_argument(
        "--filter",
        default="gatekeeper-gpu",
        choices=["auto", *available_filters()],
        help="pre-alignment filter to run, or 'auto' to let the planner "
        "choose the cheapest admissible cascade (default: gatekeeper-gpu)",
    )
    parser.add_argument(
        "--cascade",
        default=None,
        metavar="A,B[,C...]",
        help="comma-separated filter names run as a cascade "
        "(cheapest first; overrides --filter)",
    )
    parser.add_argument("--encoding", choices=["host", "device"], default="device")
    parser.add_argument("--setup", choices=["setup1", "setup2"], default="setup1")
    parser.add_argument("--devices", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--verify", action="store_true",
                        help="run the exact verification loop on the survivors")
    parser.add_argument("--json", action="store_true",
                        help="emit the canonical JSON report")
    _add_executor_flags(parser)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    result = _run_workload(parser, {
        "input": {
            "kind": "dataset",
            "dataset": args.dataset,
            "n_pairs": args.pairs,
            "seed": args.seed,
        },
        "filter": _filter_section(parser, args),
        "execution": {
            "mode": "memory",
            "setup": args.setup,
            "n_devices": args.devices,
            "encoding": args.encoding,
            "verify": args.verify,
            "executor": args.executor,
            "workers": args.workers,
            "kernel_tier": args.kernel_tier,
        },
    })
    if args.json:
        return _emit_json(result)
    return _print_filter_tables(result)


# --------------------------------------------------------------------------- #
# repro-map
# --------------------------------------------------------------------------- #
def map_main(argv: Sequence[str] | None = None) -> int:
    from .engine import available_filters

    parser = argparse.ArgumentParser(description="mrFAST-like mapping with pre-alignment filtering")
    parser.add_argument("--reads", type=int, default=300)
    parser.add_argument("--read-length", type=int, default=DEFAULT_READ_LENGTH)
    parser.add_argument("--genome-length", type=int, default=50_000)
    parser.add_argument("--error-threshold", type=int, default=DEFAULT_ERROR_THRESHOLD)
    parser.add_argument(
        "--filter",
        default="gatekeeper-gpu",
        choices=available_filters(),
        help="pre-alignment filter used by the mapper (default: gatekeeper-gpu)",
    )
    parser.add_argument("--no-filter", action="store_true", help="disable pre-alignment filtering")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true",
                        help="emit the canonical JSON report")
    args = parser.parse_args(argv)

    result = _run_workload(parser, {
        "input": {
            "kind": "mapping",
            "n_reads": args.reads,
            "read_length": args.read_length,
            "genome_length": args.genome_length,
            "seed": args.seed,
            "prefilter": not args.no_filter,
        },
        "filter": {"filter": args.filter, "error_threshold": args.error_threshold},
    })
    if args.json:
        return _emit_json(result)
    return _print_mapping_tables(result)


# --------------------------------------------------------------------------- #
# repro-stream
# --------------------------------------------------------------------------- #
def stream_main(argv: Sequence[str] | None = None) -> int:
    """Chunked streaming filtration of real FASTQ/FASTA (or pairs-TSV) inputs."""
    from .engine import available_filters

    parser = argparse.ArgumentParser(
        description=(
            "Stream candidate pairs from files through a pre-alignment filter "
            "in bounded memory, sharded across simulated devices"
        )
    )
    parser.add_argument(
        "--input",
        required=True,
        help="FASTQ/FASTA read file (requires --reference) or a "
        "two-column read<TAB>segment pairs file",
    )
    parser.add_argument(
        "--reference",
        default=None,
        help="reference FASTA to seed the reads against (mapper-index source)",
    )
    parser.add_argument(
        "--filter",
        default="gatekeeper-gpu",
        choices=["auto", *available_filters()],
        help="pre-alignment filter to run, or 'auto' to let the planner "
        "choose the cheapest admissible cascade (default: gatekeeper-gpu)",
    )
    parser.add_argument(
        "--cascade",
        default=None,
        metavar="A,B[,C...]",
        help="comma-separated filter names run as a cascade "
        "(cheapest first; overrides --filter)",
    )
    parser.add_argument("--error-threshold", type=int, default=DEFAULT_ERROR_THRESHOLD)
    parser.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE)
    parser.add_argument("--devices", type=int, default=1)
    parser.add_argument("--setup", choices=["setup1", "setup2"], default="setup1")
    parser.add_argument("--encoding", choices=["host", "device"], default="device")
    parser.add_argument("--seeding-k", type=int, default=DEFAULT_SEEDING_K,
                        help="seed k-mer length")
    parser.add_argument(
        "--max-candidates", type=int, default=DEFAULT_MAX_CANDIDATES_PER_READ,
        help="candidate cap per read",
    )
    parser.add_argument(
        "--no-verify", action="store_true", help="skip the exact verification loop"
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the canonical JSON report"
    )
    parser.add_argument(
        "--max-chunk-rows",
        type=int,
        default=50,
        help="per-chunk accounting rows to keep/print (0 disables; default 50)",
    )
    _add_executor_flags(parser, streaming=True)
    args = parser.parse_args(argv)
    if args.chunk_size < 1:
        parser.error("--chunk-size must be at least 1")
    if args.devices < 1:
        parser.error("--devices must be at least 1")
    if args.max_chunk_rows < 0:
        parser.error("--max-chunk-rows must be non-negative")

    if args.reference is not None:
        input_section = {
            "kind": "reads",
            "path": args.input,
            "reference": args.reference,
            "seeding_k": args.seeding_k,
            "max_candidates_per_read": args.max_candidates,
        }
    else:
        # The Session's tsv source rejects read files with the actionable
        # "pass a reference FASTA" message (repro.runtime.sources).
        input_section = {"kind": "tsv", "path": args.input}

    result = _run_workload(parser, {
        "input": input_section,
        "filter": _filter_section(parser, args),
        "execution": {
            "mode": "streaming",
            "setup": args.setup,
            "n_devices": args.devices,
            "encoding": args.encoding,
            "chunk_size": args.chunk_size,
            "verify": not args.no_verify,
            "executor": args.executor,
            "workers": args.workers,
            "prefetch": args.prefetch,
            "kernel_tier": args.kernel_tier,
        },
        "output": {
            "include_chunks": args.max_chunk_rows > 0,
            "max_chunk_rows": args.max_chunk_rows,
        },
    })
    if args.json:
        return _emit_json(result)
    return _print_stream_tables(result)


# --------------------------------------------------------------------------- #
# repro-experiment
# --------------------------------------------------------------------------- #
def _experiments():
    from .analysis import experiments
    from .simulate.datasets import build_dataset

    return {
        "table1": lambda: experiments.table1_batch_size_rows(),
        "table2": lambda: experiments.table2_throughput_rows(),
        "table4": lambda: experiments.table4_speedup_rows(reduction=0.90),
        "table5": lambda: experiments.table5_overall_rows(reduction=0.90),
        "table6": lambda: experiments.table6_power_rows(),
        "fig4": lambda: experiments.false_accept_rows(
            build_dataset("Set 3", n_pairs=1_000), thresholds=range(0, 11)
        ),
        "fig5": lambda: experiments.filter_comparison_rows(
            build_dataset("Set 1", n_pairs=300), thresholds=(0, 2, 5, 10), max_pairs=300
        ),
        "fig6": lambda: experiments.encoding_actor_rows(),
        "fig7": lambda: experiments.read_length_rows(),
        "fig8": lambda: experiments.multi_gpu_rows(),
        "figS12": lambda: experiments.error_threshold_filter_time_rows(),
        "occupancy": lambda: experiments.occupancy_rows(),
    }


def experiment_main(argv: Sequence[str] | None = None) -> int:
    experiments = _experiments()
    parser = argparse.ArgumentParser(description="Regenerate a table/figure from the paper")
    parser.add_argument("name", choices=sorted(experiments), help="experiment to run")
    args = parser.parse_args(argv)
    rows = experiments[args.name]()
    print(format_table(rows, title=f"Reproduction of {args.name}"))
    return 0


# --------------------------------------------------------------------------- #
# repro lint
# --------------------------------------------------------------------------- #
def lint_main(argv: Sequence[str] | None = None) -> int:
    """Run the repo-invariant linter (lazy import: no argparse tree otherwise)."""
    from .analysis.lint.cli import main as lint_cli_main

    return lint_cli_main(argv)


# --------------------------------------------------------------------------- #
# repro serve / repro submit
# --------------------------------------------------------------------------- #
def serve_main(argv: Sequence[str] | None = None) -> int:
    """Run the filter-as-a-service daemon (lazy import keeps startup lean)."""
    from .serve.cli import serve_main as serve_cli_main

    return serve_cli_main(argv)


def submit_main(argv: Sequence[str] | None = None) -> int:
    """Submit a workload to a live daemon (output byte-identical to `repro run`)."""
    from .serve.cli import submit_main as submit_cli_main

    return submit_cli_main(argv)


# --------------------------------------------------------------------------- #
# repro shard / repro merge
# --------------------------------------------------------------------------- #
def shard_main(argv: Sequence[str] | None = None) -> int:
    """Split a workload into shard files + cluster job scripts (repro.cluster)."""
    from .cluster.cli import shard_main as shard_cli_main

    return shard_cli_main(argv)


def merge_main(argv: Sequence[str] | None = None) -> int:
    """Merge per-shard results into the single-run Result (repro.cluster)."""
    from .cluster.cli import merge_main as merge_cli_main

    return merge_cli_main(argv)


# --------------------------------------------------------------------------- #
# repro (dispatcher)
# --------------------------------------------------------------------------- #
_COMMANDS = {
    "run": run_main,
    "plan": plan_main,
    "filter": filter_main,
    "map": map_main,
    "stream": stream_main,
    "experiment": experiment_main,
    "lint": lint_main,
    "serve": serve_main,
    "submit": submit_main,
    "shard": shard_main,
    "merge": merge_main,
}


def main(argv: Sequence[str] | None = None) -> int:
    """The ``repro`` umbrella command: dispatch to a subcommand."""
    argv = list(sys.argv[1:] if argv is None else argv)
    usage = (
        "usage: repro {run,plan,filter,map,stream,experiment,lint,serve,submit,"
        "shard,merge} ...\n\n"
        "  run         execute a declarative TOML/JSON workload file\n"
        "  plan        print the planned cascade for a filter='auto' workload\n"
        "  filter      filter a simulated candidate-pair pool\n"
        "  map         run the mrFAST-like mapper on simulated reads\n"
        "  stream      stream real FASTQ/FASTA or pairs-TSV inputs\n"
        "  experiment  regenerate one of the paper's tables/figures\n"
        "  lint        check the tree against the repo's invariant rules\n"
        "  serve       run the resident filter-as-a-service daemon\n"
        "  submit      send a workload to a live daemon (same JSON as run)\n"
        "  shard       split a workload into N shard files + cluster job scripts\n"
        "  merge       merge per-shard results into the single-run report\n"
    )
    if not argv:
        print(usage, file=sys.stderr)
        return 2
    if argv[0] in ("-h", "--help"):
        print(usage)
        return 0
    command = argv[0]
    if command not in _COMMANDS:
        print(usage, file=sys.stderr)
        print(f"repro: unknown command {command!r}", file=sys.stderr)
        return 2
    return _COMMANDS[command](argv[1:])


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
