"""The adaptive cascade planner behind ``filter = "auto"``.

The six registered filters trade accept-rate against speed *on the data at
hand* — a low-edit workload rewards the tightest filter, a high-edit one the
cheapest — so the optimal choice is input-dependent.  This module makes that
choice automatically and deterministically:

1. **Probe.**  Sample a fixed prefix of the input's pair stream (at most
   ``[filter.planner].sample_pairs`` pairs; the prefix is a pure function of
   the input spec, so the memory and streaming paths — and every shard
   planner — see the same probe) and run every filter that appears in a
   candidate cascade over it once with the filter's own batch kernel
   (:meth:`~repro.filters.base.PreAlignmentFilter.filter_batch`, at the
   workload's kernel tier), recording each filter's boolean accept mask.
2. **Search.**  Enumerate candidate cascades (each single filter plus every
   cost-ascending 2-stage — and, with ``max_stages = 3``, 3-stage —
   combination, or the explicit ``candidates`` list) and score each with the
   cost model

   ``est_cost = probe_cost + Σ_stages (predicted_stage_input ×
   filter_cost_per_pair) + modelled_verification(est_accepts)``

   where per-filter costs are the calibrated constants of
   :data:`repro._defaults.FILTER_COST_PER_PAIR_S` (scaled linearly with read
   length), predicted stage inputs scale the probe's running survivor counts
   to the input total with deterministic integer rounding, and the
   verification term is the same analytic model the pipeline reports
   (:func:`repro.exec.reduce.modelled_verification_times`).  Because every
   filter under-estimates edits, a cascade's accept set is the intersection
   of its stages' accept masks — measured exactly on the probe.
3. **Budget.**  A candidate is *admissible* when its probe accept count
   exceeds the tightest candidate's by at most ``false_accept_budget ×
   probe_pairs``.  The plan is the cheapest admissible candidate
   (ties break toward fewer stages, then lexicographic names).

The chosen :class:`Plan` is frozen into the workload
(:func:`resolve_workload`) as the concrete cascade plus a ``filter.plan``
record, *before* any executor fan-out or shard file exists — so the decision
is byte-identical across backends, worker counts, shard counts and modes.
Timing never enters the decision: costs are model constants and accept
masks are deterministic per-pair decisions, which is what makes the plan
reproducible across hosts.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from .. import _schema as K
from .._defaults import FILTER_COST_PER_PAIR_S
from ..api.workload import FilterSpec, PlannerSpec, Workload
from ..engine.registry import get_filter

if TYPE_CHECKING:
    from ..api.session import Session

__all__ = [
    "PLANNER_VERSION",
    "CandidateEstimate",
    "Plan",
    "plan_cache_key",
    "plan_workload",
    "resolve_workload",
    "filter_cost_per_pair",
]

#: Version stamp carried by every plan record; bump on any change to the
#: cost model, candidate generation or tie-breaking so recorded plans are
#: comparable only within a version.
PLANNER_VERSION = 1


def filter_cost_per_pair(name: str, read_length: int) -> float:
    """Calibrated per-pair cost of one filter at a read length (seconds)."""
    return FILTER_COST_PER_PAIR_S[name] * (read_length / 100.0)


def _scaled(count: int, total: int, probe_n: int) -> int:
    """Scale a probe count to the input total with deterministic rounding."""
    return (count * total + probe_n // 2) // probe_n


@dataclass(frozen=True)
class CandidateEstimate:
    """One scored candidate cascade."""

    cascade: tuple[str, ...]
    probe_accepts: int
    est_accepts: int
    est_cost_s: float
    admissible: bool
    chosen: bool = False

    def as_dict(self) -> "dict[str, Any]":
        return {
            K.CASCADE: list(self.cascade),
            K.PROBE_ACCEPTS: self.probe_accepts,
            K.EST_ACCEPTS: self.est_accepts,
            K.EST_COST_S: self.est_cost_s,
            K.ADMISSIBLE: self.admissible,
            K.CHOSEN: self.chosen,
        }


@dataclass(frozen=True)
class Plan:
    """The frozen outcome of one planning pass."""

    cascade: tuple[str, ...]
    probe_pairs: int
    probe_cost_s: float
    est_cost_s: float
    est_accepts: int
    total_pairs: int
    read_length: int
    spec: PlannerSpec
    candidates: tuple[CandidateEstimate, ...]

    def record(self) -> "dict[str, Any]":
        """The JSON-shaped ``filter.plan`` record a resolved workload carries."""
        rec: dict[str, Any] = {
            K.PLANNER_VERSION: PLANNER_VERSION,
            K.CASCADE: list(self.cascade),
            K.PROBE_PAIRS: self.probe_pairs,
            K.PROBE_COST_S: self.probe_cost_s,
            K.EST_COST_S: self.est_cost_s,
            K.EST_ACCEPTS: self.est_accepts,
            K.SAMPLE_PAIRS: self.spec.sample_pairs,
            K.FALSE_ACCEPT_BUDGET: self.spec.false_accept_budget,
            K.MAX_STAGES: self.spec.max_stages,
            K.CANDIDATES: [candidate.as_dict() for candidate in self.candidates],
        }
        # A JSON round trip canonicalises the shapes (tuples -> lists) so the
        # record compares equal however it travelled — in memory, through a
        # shard workload file, or back out of a merged Result.
        out: dict[str, Any] = json.loads(json.dumps(rec, sort_keys=True))
        return out


# --------------------------------------------------------------------------- #
# Cache keys
# --------------------------------------------------------------------------- #
def plan_cache_key(
    workload: Workload, planner: PlannerSpec
) -> "tuple[Any, ...] | None":
    """The session-cache key of a plan, or ``None`` when uncacheable.

    Keyed by the *identity of the input data* (mirroring the session's
    dataset cache) plus everything the decision depends on: the error
    threshold and the planner knobs.  In-memory ``pairs`` inputs have no
    spec-derivable identity, so they re-plan per run.
    """
    spec = workload.input
    input_key: "tuple[Any, ...]"
    if spec.kind == "dataset":
        input_key = ("dataset", spec.dataset, spec.n_pairs, spec.seed)
    elif spec.kind == "tsv":
        input_key = ("tsv", str(spec.path))
    elif spec.kind == "reads":
        input_key = (
            "reads",
            str(spec.path),
            str(spec.reference),
            spec.seeding_k,
            spec.max_candidates_per_read,
        )
    else:
        return None
    return (
        input_key,
        workload.filter.error_threshold,
        planner.sample_pairs,
        planner.false_accept_budget,
        planner.max_stages,
        planner.candidates,
    )


# --------------------------------------------------------------------------- #
# Candidate generation
# --------------------------------------------------------------------------- #
def _candidate_cascades(planner: PlannerSpec) -> "list[tuple[str, ...]]":
    if planner.candidates is not None:
        return list(planner.candidates)
    by_cost = sorted(
        FILTER_COST_PER_PAIR_S, key=lambda name: (FILTER_COST_PER_PAIR_S[name], name)
    )
    cascades: "list[tuple[str, ...]]" = [(name,) for name in by_cost]
    for n_stages in range(2, planner.max_stages + 1):
        # combinations() preserves the cost-ascending order, so every
        # generated cascade runs its cheapest stage first.
        cascades.extend(itertools.combinations(by_cost, n_stages))
    return cascades


def _total_pairs(session: "Session", workload: Workload) -> int:
    from ..cluster.plan import count_pairs

    return count_pairs(workload, session)


# --------------------------------------------------------------------------- #
# Planning
# --------------------------------------------------------------------------- #
def _compute_plan(
    session: "Session", workload: Workload, planner: PlannerSpec
) -> Plan:
    from ..exec.reduce import modelled_verification_times

    batch = session.probe_pairs(workload, planner.sample_pairs)
    if not batch.n_pairs:
        raise ValueError(
            "workload.input: cannot plan an empty input "
            "(the probe prefix produced no pairs)"
        )
    probe_n = batch.n_pairs
    read_length = batch.length
    total = max(_total_pairs(session, workload), probe_n)

    cascades = _candidate_cascades(planner)
    probed_names = sorted({name for cascade in cascades for name in cascade})

    # One batch-kernel run per distinct filter on the packed probe (no
    # engine: the masks are per-pair decisions, so batching and the device
    # split cannot change them); a cascade's accept set is the intersection
    # of its stages' masks, so no candidate needs its own probe pass.
    threshold = workload.filter.error_threshold
    tier = workload.execution.kernel_tier
    masks: "dict[str, Any]" = {}
    for name in probed_names:
        _, accepted = get_filter(name, threshold).filter_batch(batch, tier=tier)
        masks[name] = np.asarray(accepted, dtype=bool)

    probe_cost = round(
        probe_n * sum(filter_cost_per_pair(name, read_length) for name in probed_names),
        9,
    )

    scored: "list[tuple[tuple[str, ...], int, int, float]]" = []
    for cascade in cascades:
        est_cost = probe_cost
        running = np.ones(probe_n, dtype=bool)
        survivors = probe_n
        for name in cascade:
            stage_input = _scaled(survivors, total, probe_n)
            est_cost += stage_input * filter_cost_per_pair(name, read_length)
            running &= masks[name]
            survivors = int(running.sum())
        est_accepts = _scaled(survivors, total, probe_n)
        est_cost += modelled_verification_times(
            est_accepts, total, read_length, session.verification_cost_per_pair_s
        )[0]
        scored.append((cascade, survivors, est_accepts, round(est_cost, 9)))

    min_probe_accepts = min(row[1] for row in scored)
    budget_pairs = planner.false_accept_budget * probe_n
    candidates = [
        CandidateEstimate(
            cascade=cascade,
            probe_accepts=probe_accepts,
            est_accepts=est_accepts,
            est_cost_s=est_cost,
            admissible=(probe_accepts - min_probe_accepts) <= budget_pairs,
        )
        for cascade, probe_accepts, est_accepts, est_cost in scored
    ]
    chosen = min(
        (c for c in candidates if c.admissible),
        key=lambda c: (c.est_cost_s, len(c.cascade), c.cascade),
    )
    candidates = [
        CandidateEstimate(
            cascade=c.cascade,
            probe_accepts=c.probe_accepts,
            est_accepts=c.est_accepts,
            est_cost_s=c.est_cost_s,
            admissible=c.admissible,
            chosen=(c is chosen),
        )
        for c in candidates
    ]
    chosen = next(c for c in candidates if c.chosen)
    return Plan(
        cascade=chosen.cascade,
        probe_pairs=probe_n,
        probe_cost_s=probe_cost,
        est_cost_s=chosen.est_cost_s,
        est_accepts=chosen.est_accepts,
        total_pairs=total,
        read_length=read_length,
        spec=planner,
        candidates=tuple(candidates),
    )


def plan_workload(session: "Session", workload: Workload) -> Plan:
    """Plan an ``auto`` workload (cached per input identity on the session)."""
    spec = workload.filter
    if not spec.is_auto:
        raise ValueError(
            "workload.filter.filters: plan_workload requires filter = 'auto' "
            f"(got {list(spec.filters)})"
        )
    planner = spec.planner if spec.planner is not None else PlannerSpec()
    key = plan_cache_key(workload, planner)
    cached = session.cached_plan(key)
    if cached is not None:
        return cached
    plan = _compute_plan(session, workload, planner)
    session.cache_plan(key, plan)
    return plan


def resolve_workload(session: "Session", workload: Workload) -> Workload:
    """The workload with ``auto`` replaced by the planned concrete cascade.

    The returned workload carries the chosen filters plus the frozen
    ``filter.plan`` record (and no longer a ``planner`` spec — the decision
    is made).  Non-``auto`` workloads pass through unchanged.
    """
    if not workload.filter.is_auto:
        return workload
    plan = plan_workload(session, workload)
    return workload.replace(
        filter=FilterSpec(
            filters=plan.cascade,
            error_threshold=workload.filter.error_threshold,
            plan=plan.record(),
        )
    )
