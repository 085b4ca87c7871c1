"""Quickstart for the one front door: Workload in, Result out.

Run with:

    PYTHONPATH=src python examples/workload_quickstart.py

A :class:`repro.api.Workload` declares *what* to run (input source, filter or
cascade, execution shape); a resident :class:`repro.api.Session` owns the
constructed engines/datasets/indexes and executes any number of workloads
without rebuilding them; every run returns the same versioned
:class:`repro.api.Result` schema — whether it came from this API, from
``repro run workload.toml``, or from a legacy ``repro-*`` CLI.
"""

from pathlib import Path

from repro.api import Session, Workload

HERE = Path(__file__).resolve().parent


def main() -> None:
    session = Session()

    # 1. Build a workload programmatically and run it.
    workload = Workload.from_dict(
        {
            "input": {"kind": "dataset", "dataset": "Set 1", "n_pairs": 5_000},
            "filter": {"filter": "sneakysnake", "error_threshold": 5},
            "execution": {"verify": False},
        }
    )
    result = session.run(workload)
    print(
        f"{result.filter} on {result.dataset}: "
        f"{result.summary['n_rejected']}/{result.summary['n_pairs']} rejected "
        f"({result.summary['reduction_pct']}%), schema v{result.schema_version}"
    )

    # 2. Same session, different workload: the cascade from workload.toml.
    #    Engines/datasets built for earlier runs are reused where they match.
    cascade_result = session.run(Workload.from_toml(HERE / "workload.toml"))
    for stage in cascade_result.stages:
        print(
            f"  stage {stage['stage']} ({stage['filter']}): "
            f"{stage['n_input']} pairs in"
        )
    print(f"session cache: {session.cache_info}")

    # 3. The canonical JSON report — byte-identical to what `repro run`
    #    prints for the same workload file.
    print(cascade_result.to_json()[:200] + "...")


if __name__ == "__main__":
    main()
