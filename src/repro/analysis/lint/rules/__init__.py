"""The repo-specific invariant rules, in their canonical order.

Each module holds one :class:`~repro.analysis.lint.engine.Rule` subclass; the
registry below is the default rule set of :func:`repro.analysis.lint.lint_paths`
and the source of the ``repro lint --list-rules`` output.
"""

from __future__ import annotations

from ..engine import Rule
from .determinism import DeterminismHazardsRule
from .encode_once import EncodeOnceRule
from .native_parity import NativeKernelParityRule
from .planner_pinned import PlannerPinnedBeforeFanoutRule
from .reduction import PartitionInvariantReductionRule
from .schema_keys import ResultSchemaKeysRule
from .shm_lifecycle import ShmLifecycleRule

__all__ = [
    "ALL_RULES",
    "RULES_BY_ID",
    "EncodeOnceRule",
    "PartitionInvariantReductionRule",
    "ShmLifecycleRule",
    "DeterminismHazardsRule",
    "ResultSchemaKeysRule",
    "NativeKernelParityRule",
    "PlannerPinnedBeforeFanoutRule",
]

#: The default rule set, in reporting order.
ALL_RULES: "tuple[Rule, ...]" = (
    EncodeOnceRule(),
    PartitionInvariantReductionRule(),
    ShmLifecycleRule(),
    DeterminismHazardsRule(),
    ResultSchemaKeysRule(),
    NativeKernelParityRule(),
    PlannerPinnedBeforeFanoutRule(),
)

RULES_BY_ID: "dict[str, Rule]" = {rule.rule_id: rule for rule in ALL_RULES}
