"""Cascade example: GateKeeper-GPU as a first-stage filter in front of SneakySnake.

Run with::

    python examples/filter_cascade.py

The paper positions GateKeeper-GPU as the fastest-but-loosest point in the
accuracy/throughput trade-off and SneakySnake/MAGNET as the most accurate.  A
natural system design is a cascade: the cheap batched GateKeeper-GPU kernel
removes the bulk of the junk candidates, and the more accurate SneakySnake
re-examines only the survivors before verification.  This is exactly what
:class:`repro.engine.FilterCascade` packages: both stages run through the
vectorized :class:`~repro.engine.FilterEngine` pipeline, survivors only, with
per-stage accounting.  The example measures how many verifications each stage
saves and confirms that the cascade never loses a genuine mapping.
"""

from __future__ import annotations

from repro.align import edit_distance
from repro.analysis import format_table
from repro.engine import FilterCascade, FilterEngine
from repro.simulate import build_dataset


def main() -> None:
    threshold = 5
    dataset = build_dataset("Set 3", n_pairs=2_000, seed=13)
    print(f"Candidate pool: {dataset.n_pairs} pairs, error threshold {threshold}")

    # Stage 1 alone: batched GateKeeper-GPU.
    stage1 = FilterEngine(
        "gatekeeper-gpu", read_length=dataset.read_length, error_threshold=threshold
    )
    alone = stage1.filter_encoded(dataset.encoded())

    # The cascade: GateKeeper-GPU first, SneakySnake on the survivors only.
    cascade = FilterCascade.from_names(
        ["gatekeeper-gpu", "sneakysnake"],
        read_length=dataset.read_length,
        error_threshold=threshold,
    )
    combined = cascade.filter_encoded(dataset.encoded())

    # Ground truth: which pairs are genuinely within the threshold?
    genuine = {
        i
        for i in range(dataset.n_pairs)
        if "N" in dataset.reads[i]
        or "N" in dataset.segments[i]
        or edit_distance(dataset.reads[i], dataset.segments[i]) <= threshold
    }

    def scoreboard(stage: str, accepted_indices, wall_clock_s: float) -> dict:
        accepted = set(map(int, accepted_indices))
        return {
            "stage": stage,
            "pairs_to_verify": len(accepted),
            "false_accepts": len(accepted - genuine),
            "false_rejects": len(genuine - accepted),
            "wall_clock_ms": round(wall_clock_s * 1e3, 1),
        }

    rows = [
        scoreboard("no filter", range(dataset.n_pairs), 0.0),
        scoreboard("GateKeeper-GPU", alone.accepted_indices(), alone.wall_clock_s),
        scoreboard(cascade.name, combined.accepted_indices(), combined.wall_clock_s),
    ]
    print()
    print(format_table(rows, title="Filter cascade: verifications remaining after each stage"))
    print()
    print(format_table(combined.stage_summaries(), title="Per-stage accounting"))
    print()
    print("Both stages keep the false-reject count at zero, so the cascade saves")
    print("verification work without losing a single genuine mapping.")


if __name__ == "__main__":
    main()
