"""Core machinery of the repo-invariant linter (``repro lint``).

The engineered contracts of this codebase — encode-exactly-once per ingest,
partition-invariant reduction, the POSIX shared-memory lifecycle, determinism
of every :class:`~repro.api.result.Result`, and one spelling authority for
the report schema — used to live only in docstrings and regression tests.  This module turns them into
machine-checked static analysis: each contract is a :class:`Rule` that walks
a file's AST and emits :class:`Violation` findings, and :func:`lint_paths`
drives the rules over a source tree.

Design notes
------------
* Rules are *path-aware*: a contract like "encoding happens only in the
  ingest seams" is inherently about which module the code lives in, so every
  rule sees the module path normalised to the package root
  (``repro/exec/fanout.py``) via :func:`module_path`.  Files outside the
  ``repro`` package (benchmarks, scripts) are outside the contracts and are
  skipped by the rules' ``applies_to``.
* Findings are waivable in place with ``# reprolint: disable=<rule>[,<rule>]``
  on any line the flagged statement spans (``disable=all`` waives every
  rule).  Waivers are for code that is *provably* correct for a reason the
  AST cannot see — the comment should say why.
* The linter is purely syntactic (no imports are executed), so it runs on
  any tree, including broken ones: files that fail to parse are reported
  under the pseudo-rule ``syntax-error``.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = [
    "LINT_SCHEMA_VERSION",
    "Violation",
    "Rule",
    "LintReport",
    "module_path",
    "collect_waivers",
    "lint_source",
    "lint_file",
    "lint_paths",
    "dotted_name",
    "terminal_name",
]

#: Version of the ``repro lint --json`` payload.  Bump on any key change.
LINT_SCHEMA_VERSION = 1

#: ``# reprolint: disable=rule-a,rule-b`` (or ``disable=all``).
_WAIVER_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\- ]+)")


@dataclass(frozen=True)
class Violation:
    """One finding: a contract broken at a specific source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: Waiver window (waivers on any line of the flagged construct apply).
    start_line: int = 0
    end_line: int = 0

    def format(self) -> str:
        """The one-line human spelling: ``file:line:col rule-id message``."""
        return f"{self.path}:{self.line}:{self.col} {self.rule} {self.message}"

    def as_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class Rule:
    """One machine-checked invariant.

    Subclasses set :attr:`rule_id` (the kebab-case name used in findings and
    waivers), :attr:`contract` (the one-line statement of the invariant the
    rule enforces) and implement :meth:`check`; :meth:`applies_to` scopes the
    rule to the modules the contract governs.
    """

    rule_id: str = ""
    contract: str = ""

    def applies_to(self, mpath: str) -> bool:
        """Whether the contract governs the module at ``mpath``.

        ``mpath`` is the :func:`module_path`-normalised path
        (``repro/exec/fanout.py``); the default scope is the whole package.
        """
        return mpath.startswith("repro/")

    def check(self, tree: ast.Module, path: str) -> list[Violation]:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Helpers for subclasses
    # ------------------------------------------------------------------ #
    def violation(
        self,
        node: ast.AST,
        path: str,
        message: str,
        span: "ast.AST | None" = None,
    ) -> Violation:
        """Build a finding anchored at ``node``.

        ``span`` widens the waiver window to an enclosing construct (e.g. the
        whole dict literal a flagged key sits in), so a waiver comment on the
        construct's opening line covers findings anywhere inside it.
        """
        line = getattr(node, "lineno", 1)
        span_node = span if span is not None else node
        start = getattr(span_node, "lineno", line)
        end = getattr(span_node, "end_lineno", None) or start
        return Violation(
            rule=self.rule_id,
            path=path,
            line=line,
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            start_line=min(start, line),
            end_line=max(end, line),
        )


def module_path(path: "str | Path") -> str:
    """Normalise ``path`` to a package-rooted posix path.

    ``/repo/src/repro/exec/fanout.py`` and ``src\\repro\\exec\\fanout.py``
    both become ``repro/exec/fanout.py``, so rules scope by module no matter
    where the tree is checked out.  Paths outside a ``repro`` directory are
    reduced to their basename (which no package-scoped rule matches).
    """
    parts = Path(path).as_posix().split("/")
    if "repro" in parts[:-1]:
        last = (len(parts) - 2) - parts[-2::-1].index("repro")
        return "/".join(parts[last:])
    return parts[-1]


def dotted_name(node: ast.AST) -> "str | None":
    """The dotted spelling of a ``Name``/``Attribute`` chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.AST) -> "str | None":
    """The last component of a call target (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def collect_waivers(source: str) -> dict[int, frozenset[str]]:
    """Map line number -> rule ids waived on that line."""
    waivers: dict[int, frozenset[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _WAIVER_RE.search(line)
        if match:
            rules = frozenset(
                part.strip() for part in match.group(1).split(",") if part.strip()
            )
            if rules:
                waivers[lineno] = rules
    return waivers


def _waived(violation: Violation, waivers: dict[int, frozenset[str]]) -> bool:
    start = min(violation.start_line or violation.line, violation.line)
    end = max(violation.end_line, violation.line)
    for line in range(start, end + 1):
        rules = waivers.get(line)
        if rules and (violation.rule in rules or "all" in rules):
            return True
    return False


def lint_source(
    source: str,
    path: str,
    rules: "Sequence[Rule] | None" = None,
) -> list[Violation]:
    """Check one source string against the rules, honouring waivers.

    ``path`` is used both for display and for rule scoping (via
    :func:`module_path`), so tests can place fixture snippets anywhere in the
    virtual tree.
    """
    if rules is None:
        from .rules import ALL_RULES

        rules = ALL_RULES
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Violation(
                rule="syntax-error",
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    mpath = module_path(path)
    waivers = collect_waivers(source)
    findings: list[Violation] = []
    for rule in rules:
        if not rule.applies_to(mpath):
            continue
        for violation in rule.check(tree, path):
            if not _waived(violation, waivers):
                findings.append(violation)
    findings.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return findings


def lint_file(path: "str | Path", rules: "Sequence[Rule] | None" = None) -> list[Violation]:
    """Check one file on disk."""
    text = Path(path).read_text(encoding="utf-8", errors="replace")
    return lint_source(text, str(path), rules=rules)


def iter_python_files(paths: Iterable["str | Path"]) -> Iterator[Path]:
    """Expand files/directories into the ``.py`` files to check, sorted."""
    seen: set[Path] = set()
    for item in paths:
        p = Path(item)
        if p.is_dir():
            candidates: Iterable[Path] = sorted(p.rglob("*.py"))
        else:
            candidates = [p]
        for candidate in candidates:
            parts = candidate.parts
            if "__pycache__" in parts or any(
                part.startswith(".") and part not in (".", "..") for part in parts
            ):
                continue
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


@dataclass(frozen=True)
class LintReport:
    """The outcome of one :func:`lint_paths` sweep."""

    violations: tuple[Violation, ...]
    n_files: int
    rules: tuple[Rule, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict[str, object]:
        """The ``--json`` payload (stable keys, versioned)."""
        return {
            "schema_version": LINT_SCHEMA_VERSION,
            "n_files": self.n_files,
            "n_violations": len(self.violations),
            "rules": [
                {"id": rule.rule_id, "contract": rule.contract} for rule in self.rules
            ],
            "violations": [violation.as_dict() for violation in self.violations],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True) + "\n"


def lint_paths(
    paths: Iterable["str | Path"],
    rules: "Sequence[Rule] | None" = None,
) -> LintReport:
    """Check every ``.py`` file under ``paths`` and collect the findings."""
    if rules is None:
        from .rules import ALL_RULES

        rules = ALL_RULES
    violations: list[Violation] = []
    n_files = 0
    for file in iter_python_files(paths):
        n_files += 1
        violations.extend(lint_file(file, rules=rules))
    return LintReport(
        violations=tuple(violations), n_files=n_files, rules=tuple(rules)
    )
