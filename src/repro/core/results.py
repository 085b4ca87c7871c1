"""Result containers of a GateKeeper-GPU filtering run.

Every filtering call returns one :class:`FilterRunResult`, whether it ran a
single :class:`~repro.engine.FilterEngine` (a one-stage cascade) or a
:class:`~repro.engine.FilterCascade`: decisions, modelled times and one
:class:`CascadeStageAccount` per stage the batch reached.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import _schema as K
from ..gpusim.timing import FilterTiming

__all__ = ["CascadeStageAccount", "FilterRunResult"]


@dataclass(frozen=True)
class CascadeStageAccount:
    """What one stage of a filtering run did."""

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
class FilterRunResult:
    """Decisions, estimates and timing of one full filtering run.

    Attributes
    ----------
    accepted:
        Boolean array, True where the pair passes to verification.
    estimated_edits:
        The filter's approximate edit distance per pair (0 for undefined
        pairs): the estimate of the last stage that examined the pair.
    undefined:
        Boolean array marking pairs that contained an ``N`` base.
    kernel_time_s / filter_time_s:
        Simulated device-only and host-perspective times from the analytic
        timing model (the paper's two reported measurements), summed over
        the stages.
    wall_clock_s:
        Actual Python wall-clock time of the vectorised kernel execution.
    timing:
        Full decomposition of the simulated filter time.
    n_batches:
        Number of kernel calls the run was split into.
    stage_accounts:
        One account per stage the batch reached, in stage order; stage 0
        examined every pair.  A single engine has exactly one.
    """

    accepted: np.ndarray
    estimated_edits: np.ndarray
    undefined: np.ndarray
    kernel_time_s: float
    filter_time_s: float
    wall_clock_s: float
    timing: FilterTiming
    n_batches: int = 1
    metadata: dict = field(default_factory=dict)
    stage_accounts: list[CascadeStageAccount] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    @property
    def n_pairs(self) -> int:
        return int(self.accepted.shape[0])

    @property
    def n_accepted(self) -> int:
        return int(self.accepted.sum())

    @property
    def n_rejected(self) -> int:
        return self.n_pairs - self.n_accepted

    @property
    def n_undefined(self) -> int:
        return int(self.undefined.sum())

    @property
    def rejection_rate(self) -> float:
        """Fraction of pairs removed before verification (the paper's "reduction")."""
        return self.n_rejected / self.n_pairs if self.n_pairs else 0.0

    def accepted_indices(self) -> np.ndarray:
        """Indices of pairs that must still be verified."""
        return np.flatnonzero(self.accepted)

    def stage_summaries(self) -> "list[dict[str, object]]":
        """Per-stage accounting rows, one per stage the batch reached."""
        return [account.summary() for account in self.stage_accounts]

    def summary(self) -> dict[str, float | int]:
        """Compact dictionary used by the analysis tables."""
        return {
            "n_pairs": self.n_pairs,
            "n_accepted": self.n_accepted,
            "n_rejected": self.n_rejected,
            "n_undefined": self.n_undefined,
            "rejection_rate": round(self.rejection_rate, 6),
            "kernel_time_s": self.kernel_time_s,
            "filter_time_s": self.filter_time_s,
            "wall_clock_s": self.wall_clock_s,
            "n_batches": self.n_batches,
        }
