"""Command-line front end of the invariant linter (``repro lint``).

Exit codes follow the convention of the other ``repro`` commands: ``0`` for a
clean tree, ``1`` when violations were found, ``2`` for usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .engine import lint_paths
from .rules import ALL_RULES, RULES_BY_ID

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "AST-based linter for this repo's engineered invariants: "
            "encode-once ingest, partition-invariant reduction, the shared-"
            "memory lifecycle, result determinism, canonical schema keys and "
            "the repro.api entry-point contract."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to check (default: src/ if present, else .)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a versioned JSON report instead of one line per finding",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the rules and the contracts they enforce, then exit",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--disable",
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    return parser


def _resolve_rules(select: "str | None", disable: "str | None") -> "list | None":
    """The rule subset the flags ask for; SystemExit(2) on unknown ids."""
    chosen = list(ALL_RULES)
    if select:
        wanted = [part.strip() for part in select.split(",") if part.strip()]
        unknown = [rule_id for rule_id in wanted if rule_id not in RULES_BY_ID]
        if unknown:
            raise SystemExit(f"repro lint: unknown rule(s): {', '.join(unknown)}")
        chosen = [RULES_BY_ID[rule_id] for rule_id in wanted]
    if disable:
        dropped = {part.strip() for part in disable.split(",") if part.strip()}
        unknown = sorted(dropped - set(RULES_BY_ID))
        if unknown:
            raise SystemExit(f"repro lint: unknown rule(s): {', '.join(unknown)}")
        chosen = [rule for rule in chosen if rule.rule_id not in dropped]
    return chosen


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}: {rule.contract}")
        return 0

    try:
        rules = _resolve_rules(args.select, args.disable)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2

    paths = list(args.paths)
    if not paths:
        paths = ["src"] if Path("src").is_dir() else ["."]
    missing = [path for path in paths if not Path(path).exists()]
    if missing:
        print(
            f"repro lint: no such file or directory: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2

    report = lint_paths(paths, rules=rules)
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        for violation in report.violations:
            print(violation.format())
        if report.violations:
            n = len(report.violations)
            print(
                f"repro lint: {n} violation{'s' if n != 1 else ''} "
                f"in {report.n_files} file(s)",
                file=sys.stderr,
            )
    return 0 if report.ok else 1

