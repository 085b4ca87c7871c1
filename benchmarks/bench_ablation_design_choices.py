"""Ablation benchmarks for the design choices DESIGN.md calls out.

Three knobs of the GateKeeper-GPU pipeline are ablated on the same candidate
pool, with the exact edit distance as ground truth:

* the **leading/trailing amendment** (the paper's algorithmic contribution)
  versus the original GateKeeper edge handling;
* the **error-counting window width** of the LUT stage;
* the **mask amendment** of short zero streaks (on versus off).
"""

import numpy as np
import pytest

from repro.analysis import evaluate_decisions, labels_from_distances
from repro.analysis.experiments import ground_truth_for_dataset
from repro.filters import GateKeeperFilter, GateKeeperGPUFilter
from _bench_helpers import emit

THRESHOLD = 5


@pytest.fixture(scope="module")
def pool(dataset_100bp):
    dataset = dataset_100bp.subset(600)
    pairs = dataset.encoded()
    distances, _ = ground_truth_for_dataset(dataset)
    truth = labels_from_distances(distances, THRESHOLD, pairs.undefined)
    return pairs, truth


def _accuracy(pairs, truth, filter_cls=GateKeeperGPUFilter, **kwargs):
    _, accepts = filter_cls(THRESHOLD, **kwargs).filter_batch(pairs)
    return evaluate_decisions(accepts, truth)


def test_ablation_edge_policy(benchmark, pool):
    """The leading/trailing amendment only removes false accepts, never adds false rejects."""
    pairs, truth = pool
    improved = benchmark(_accuracy, pairs, truth, filter_cls=GateKeeperGPUFilter)
    legacy = _accuracy(pairs, truth, filter_cls=GateKeeperFilter)
    emit(
        "Ablation — edge policy (GateKeeper-GPU improvement)",
        [
            {"variant": "GateKeeper-GPU (edges forced to 1)", **improved.as_row()},
            {"variant": "original GateKeeper (edges left 0)", **legacy.as_row()},
        ],
    )
    assert improved.false_accepts <= legacy.false_accepts
    assert improved.false_rejects == 0
    assert legacy.false_rejects == 0


@pytest.mark.parametrize("window", [2, 4, 8])
def test_ablation_count_window(benchmark, pool, window):
    """Narrower counting windows reject more aggressively; 4 bases keeps FR at zero."""
    pairs, truth = pool
    summary = benchmark(_accuracy, pairs, truth, count_window=window)
    emit(f"Ablation — counting window = {window} bases", [summary.as_row()])
    if window >= 4:
        assert summary.false_rejects == 0
    if window <= 4:
        # Narrow windows count more edits, so they cannot accept more pairs
        # than the default configuration does.
        default = _accuracy(pairs, truth, count_window=4)
        assert summary.false_accepts <= default.false_accepts + 1


def test_ablation_amendment(benchmark, pool):
    """Disabling the zero-streak amendment hides errors and inflates false accepts."""
    pairs, truth = pool
    with_amendment = benchmark(_accuracy, pairs, truth, max_zero_run=2)
    without_amendment = _accuracy(pairs, truth, max_zero_run=1)
    emit(
        "Ablation — zero-streak amendment",
        [
            {"variant": "amend runs <= 2 (default)", **with_amendment.as_row()},
            {"variant": "amend runs <= 1 only", **without_amendment.as_row()},
        ],
    )
    # Weaker amendment leaves more zeros in the masks, so the final AND hides
    # more errors and the filter accepts at least as many over-threshold pairs.
    assert without_amendment.false_accepts >= with_amendment.false_accepts
    assert with_amendment.false_rejects == 0
