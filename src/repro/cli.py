"""The ``repro`` command line: one umbrella command over :class:`repro.api.Session`.

``repro run workload.toml`` executes a declarative :class:`~repro.api.Workload`
file and prints the canonical JSON :class:`~repro.api.Result` (``--table``
prints it as human-readable tables).  Every filtering run is a workload:
any input kind (simulated dataset, pairs TSV, FASTQ/FASTA reads seeded
against a reference, whole-genome mapping), any filter or cascade, memory or
streaming mode.  The other subcommands plan, shard, merge, serve, submit,
lint and regenerate the paper's experiments; ``_COMMANDS`` lists them all,
and ``repro --help`` prints that table.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import sys
from pathlib import Path
from typing import Sequence

from .api import Result, Session, Workload
from .analysis import format_table

__all__ = ["main", "run_main", "plan_main", "experiment_main"]


def _print_tables(result: Result) -> None:
    """The ``repro run --table`` view of a Result."""
    if result.kind == "mapping":
        print(format_table(result.rows, title="Whole-genome mapping information"))
        return
    print(format_table([result.summary], title=f"{result.filter} on {result.dataset}"))
    if result.stages:
        print()
        print(format_table(result.stages, title="Per-stage accounting"))
    if result.streaming is not None:
        print()
        print(format_table([result.streaming], title="Streaming execution"))
    if result.chunks:
        print()
        print(format_table(result.chunks, title="Per-chunk accounting"))
        n_chunks = result.streaming["n_chunks"]
        if n_chunks > len(result.chunks):
            print(f"... showing first {len(result.chunks)} of {n_chunks} chunks")


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
        _print_tables(result)
    else:
        sys.stdout.write(result.to_json())
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
# repro experiment
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
    parser = argparse.ArgumentParser(
        prog="repro experiment", description="Regenerate a table/figure from the paper"
    )
    parser.add_argument("name", choices=sorted(experiments), help="experiment to run")
    args = parser.parse_args(argv)
    rows = experiments[args.name]()
    print(format_table(rows, title=f"Reproduction of {args.name}"))
    return 0


# --------------------------------------------------------------------------- #
# repro (dispatcher)
# --------------------------------------------------------------------------- #
#: Every subcommand: name -> ("module:function" entry point, help line).  The
#: entry point is imported only when its command runs, so ``repro run`` never
#: loads the linter, the daemon or the cluster tooling.
_COMMANDS: dict[str, tuple[str, str]] = {
    "run": ("repro.cli:run_main", "execute a declarative TOML/JSON workload file"),
    "plan": (
        "repro.cli:plan_main", "print the planned cascade for a filter='auto' workload"
    ),
    "experiment": (
        "repro.cli:experiment_main", "regenerate one of the paper's tables/figures"
    ),
    "lint": (
        "repro.analysis.lint.cli:main", "check the tree against the repo's invariant rules"
    ),
    "serve": ("repro.serve.cli:serve_main", "run the resident filter-as-a-service daemon"),
    "submit": (
        "repro.serve.cli:submit_main", "send a workload to a live daemon (same JSON as run)"
    ),
    "shard": (
        "repro.cluster.cli:shard_main",
        "split a workload into N shard files + cluster job scripts",
    ),
    "merge": (
        "repro.cluster.cli:merge_main", "merge per-shard results into the single-run report"
    ),
}


def _usage() -> str:
    width = max(len(name) for name in _COMMANDS) + 2
    lines = [f"usage: repro {{{','.join(_COMMANDS)}}} ...", ""]
    lines += [f"  {name:<{width}}{help_line}" for name, (_, help_line) in _COMMANDS.items()]
    return "\n".join(lines) + "\n"


def main(argv: Sequence[str] | None = None) -> int:
    """The ``repro`` umbrella command: dispatch to a subcommand."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print(_usage(), file=sys.stderr)
        return 2
    if argv[0] in ("-h", "--help"):
        print(_usage())
        return 0
    command = argv[0]
    if command not in _COMMANDS:
        print(_usage(), file=sys.stderr)
        print(f"repro: unknown command {command!r}", file=sys.stderr)
        return 2
    module_name, function_name = _COMMANDS[command][0].split(":")
    entry = getattr(importlib.import_module(module_name), function_name)
    return entry(argv[1:])


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
