"""Cascaded filtering: a cheap filter first, survivors re-filtered.

The paper positions GateKeeper-GPU as the fastest-but-loosest point of the
accuracy/throughput trade-off and SneakySnake/MAGNET as the most accurate; a
natural system design (``examples/filter_cascade.py``) chains them — the
cheap batched stage removes the bulk of the junk candidates and the more
accurate stage re-examines only the survivors before verification.
:class:`FilterCascade` packages that pattern behind the same
``filter_encoded`` entry point as :class:`~repro.engine.engine.FilterEngine`,
so a cascade drops into the chunk runner, the mapper and the CLI like a
single filter.

Each stage only sees the pairs every earlier stage accepted.  Undefined
(``N``-containing) pairs take a direct pass through every stage, so the
cascade preserves the no-false-reject contract of its stages.  The stage
walk itself lives in :mod:`repro.exec.tasks`; the combined
:class:`CascadeRunResult` keeps per-stage accounting, rebuilt from the
per-stage totals by :func:`repro.exec.reduce.reduce_totals`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from .. import _schema as K
from ..core.config import EncodingActor
from ..core.results import FilterRunResult
from ..genomics.encoding import EncodedPairBatch
from .engine import FilterEngine

if TYPE_CHECKING:
    from ..exec.executor import Executor

__all__ = ["CascadeStageAccount", "CascadeRunResult", "FilterCascade"]


@dataclass(frozen=True)
class CascadeStageAccount:
    """What one stage of a cascade did."""

    stage: int
    filter_name: str
    n_input: int
    n_accepted: int
    n_rejected: int
    kernel_time_s: float
    filter_time_s: float

    def summary(self) -> "dict[str, object]":
        return {
            K.STAGE: self.stage,
            K.FILTER: self.filter_name,
            K.N_INPUT: self.n_input,
            K.N_ACCEPTED: self.n_accepted,
            K.N_REJECTED: self.n_rejected,
            K.KERNEL_TIME_S: self.kernel_time_s,
            K.FILTER_TIME_S: self.filter_time_s,
        }


@dataclass
class CascadeRunResult(FilterRunResult):
    """A :class:`FilterRunResult` plus per-stage accounting."""

    stage_accounts: list[CascadeStageAccount] = field(default_factory=list)

    def stage_summaries(self) -> "list[dict[str, object]]":
        return [account.summary() for account in self.stage_accounts]


class FilterCascade:
    """Run several :class:`FilterEngine` stages as one composite filter.

    Parameters
    ----------
    stages:
        Engines in execution order (cheapest first).  All stages must share
        one error threshold — a cascade with mixed thresholds would not have a
        single well-defined accept contract for the verifier that follows it
        — and one read length, device count, encoding actor and kernel tier,
        the values the cascade reports as its own.
    """

    def __init__(self, stages: Sequence[FilterEngine]) -> None:
        stages = list(stages)
        if not stages:
            raise ValueError("a cascade needs at least one stage")
        for field_name in (
            "error_threshold",
            "read_length",
            "n_devices",
            "encoding",
            "kernel_tier",
        ):
            values = {getattr(stage, field_name) for stage in stages}
            if len(values) != 1:
                raise ValueError(
                    f"cascade stages disagree on {field_name}: {sorted(values, key=str)}"
                )
        self.stages = stages

    @classmethod
    def from_names(
        cls,
        names: Sequence[str],
        read_length: int,
        error_threshold: int,
        **engine_kwargs: Any,
    ) -> "FilterCascade":
        """Build a cascade from registry names, e.g. ``["gatekeeper-gpu", "sneakysnake"]``."""
        return cls(
            [
                FilterEngine(name, read_length, error_threshold, **engine_kwargs)
                for name in names
            ]
        )

    @classmethod
    def from_plan(
        cls,
        plan: "dict[str, Any]",
        read_length: int,
        error_threshold: int,
        **engine_kwargs: Any,
    ) -> "FilterCascade":
        """Build the cascade a frozen planner record chose.

        ``plan`` is a ``filter.plan`` record as emitted by
        :meth:`repro.planner.Plan.record` (or read back out of a resolved
        workload / Result); only its ``cascade`` stage list is consumed.
        """
        names = plan.get(K.CASCADE)
        if not isinstance(names, (list, tuple)) or not names:
            raise ValueError(
                f"plan record has no usable {K.CASCADE!r} stage list: {names!r}"
            )
        return cls.from_names(
            [str(name) for name in names], read_length, error_threshold, **engine_kwargs
        )

    # ------------------------------------------------------------------ #
    # Introspection helpers
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        return " -> ".join(stage.name for stage in self.stages)

    @property
    def error_threshold(self) -> int:
        return self.stages[0].error_threshold

    @property
    def read_length(self) -> int:
        return self.stages[0].read_length

    @property
    def n_devices(self) -> int:
        return self.stages[0].n_devices

    @property
    def encoding(self) -> EncodingActor:
        return self.stages[0].encoding

    @property
    def kernel_tier(self) -> str:
        return self.stages[0].kernel_tier

    @property
    def active_kernel_tier(self) -> str:
        """The tier the stages actually run (``"native"`` or ``"numpy"``)."""
        return self.stages[0].active_kernel_tier

    # ------------------------------------------------------------------ #
    # Filtering
    # ------------------------------------------------------------------ #
    def filter_encoded(
        self, pairs: EncodedPairBatch, executor: "Executor | None" = None
    ) -> CascadeRunResult:
        """Filter an encoded pair batch through every stage.

        Each stage only sees the survivors of every earlier stage, selected by
        pure index selection on the parent
        :class:`~repro.genomics.encoding.EncodedPairBatch` — survivor string
        lists are never rebuilt and nothing is ever re-encoded, no matter how
        many stages the cascade has.

        The batch fans out across ``executor``'s workers, or runs as one
        share on a serial executor when ``executor`` is ``None``.  Every
        worker carries its share through all stages locally (no
        intermediate state crosses the transport), and the stage accounts,
        modelled times and ``n_batches`` are rebuilt from the per-stage
        totals, so they are byte-identical for every backend and worker
        count.
        """
        # Imported on first use, like FilterEngine.filter_encoded's.
        from ..exec.fanout import fan_out_cascade
        from ..exec.reduce import reduce_totals

        n = pairs.n_pairs
        if n == 0:
            raise ValueError("cannot filter an empty work list")
        wall_start = time.perf_counter()
        estimates, accepted, undefined, stage_inputs = fan_out_cascade(
            self, pairs, executor
        )
        wall_clock = time.perf_counter() - wall_start
        accounts, timing, n_batches = reduce_totals(
            self, n, stage_inputs, int(accepted.sum())
        )
        return CascadeRunResult(
            accepted=accepted,
            estimated_edits=estimates,
            undefined=undefined,
            kernel_time_s=timing.kernel_s,
            filter_time_s=timing.filter_s,
            wall_clock_s=wall_clock,
            timing=timing,
            n_batches=n_batches,
            metadata={
                "filter": self.name,
                "stages": [stage.name for stage in self.stages],
                "n_devices": self.n_devices,
                "encoding": self.encoding.value,
                "kernel_tier": self.active_kernel_tier,
            },
            stage_accounts=accounts,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FilterCascade({self.name!r}, error_threshold={self.error_threshold})"
