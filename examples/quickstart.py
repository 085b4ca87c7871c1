"""Quickstart: filter a pool of read / candidate-segment pairs with GateKeeper-GPU.

Run with::

    python examples/quickstart.py

The example declares a workload over a small synthetic candidate pool (the
scaled analogue of the paper's Set 3), runs it on a ``Session`` — filter with
GateKeeper-GPU, verify the survivors with the exact edit-distance verifier —
and prints how much verification work the filter saved.
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.api import Session, Workload


def main() -> None:
    # A candidate pool of 2,000 read / reference-segment pairs of 100 bp,
    # mimicking what mrFAST's seeding stage hands to verification, filtered
    # by GateKeeper-GPU (device-side encoding, one simulated GPU) and
    # verified.
    workload = Workload.from_dict(
        {
            "input": {"kind": "dataset", "dataset": "Set 3", "n_pairs": 2_000, "seed": 42},
            "filter": {"filter": "gatekeeper-gpu", "error_threshold": 5},
            "execution": {"encoding": "device", "verify": True},
        }
    )
    result = Session().run(workload)
    summary = result.summary

    print(format_table([summary], title=f"{result.filter} filtering report"))
    print()
    print(f"The filter rejected {summary['n_rejected']} of {summary['n_pairs']} candidate "
          f"pairs ({summary['reduction_pct']:.1f}% of the verification work; "
          f"{summary['n_undefined']} undefined pairs containing 'N' passed directly) and "
          f"the verifier confirmed {summary['verified_accepts']} genuine mappings among "
          f"the survivors.")
    print(f"Simulated kernel time: {summary['kernel_time_s'] * 1e3:.3f} ms, "
          f"filter time: {summary['filter_time_s'] * 1e3:.3f} ms "
          f"(analytic GTX 1080 Ti model); Python wall clock: "
          f"{result.wall_clock_s * 1e3:.1f} ms.")


if __name__ == "__main__":
    main()
