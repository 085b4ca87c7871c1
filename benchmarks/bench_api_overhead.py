"""Facade-overhead benchmark: what does the one front door cost?

Plain script (like ``bench_streaming.py``) so CI can run it without extra
dependencies:

    PYTHONPATH=src python benchmarks/bench_api_overhead.py

Three ways of filtering the same candidate pool are timed:

* **direct** — a prebuilt :class:`~repro.engine.FilterEngine` called straight
  on a prebuilt dataset (the floor: no facade at all);
* **session (warm)** — ``Session.run(workload)`` on one resident session
  whose engine/dataset caches are already populated (the steady state of a
  long-lived service);
* **session (cold)** — a fresh ``Session()`` per call, paying dataset
  generation + engine construction every time (the anti-pattern the resident
  session exists to avoid).

``BENCH_api_overhead.json`` records the per-call facade overhead (warm vs
direct) and the session-reuse speedup (cold vs warm), carrying the canonical
``schema_version``.  Knobs: ``REPRO_BENCH_API_PAIRS`` (default 10,000) and
``REPRO_BENCH_API_REPEATS`` (default 5).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import SCHEMA_VERSION, Session, Workload  # noqa: E402
from repro.engine import FilterEngine  # noqa: E402
from repro.simulate.datasets import build_dataset  # noqa: E402

N_PAIRS = int(os.environ.get("REPRO_BENCH_API_PAIRS", "10000"))
REPEATS = int(os.environ.get("REPRO_BENCH_API_REPEATS", "5"))
ERROR_THRESHOLD = 5
FILTER_NAME = "gatekeeper-gpu"
OUTPUT = Path(os.environ.get("REPRO_BENCH_API_OUTPUT", "BENCH_api_overhead.json"))

WORKLOAD = {
    "input": {"kind": "dataset", "dataset": "Set 1", "n_pairs": N_PAIRS, "seed": 42},
    "filter": {"filter": FILTER_NAME, "error_threshold": ERROR_THRESHOLD},
    "execution": {"mode": "memory", "verify": False},
}


def timed(fn, repeats: int) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats


def main() -> int:
    workload = Workload.from_dict(WORKLOAD)
    dataset = build_dataset("Set 1", n_pairs=N_PAIRS, seed=42)
    engine = FilterEngine(
        FILTER_NAME, read_length=dataset.read_length, error_threshold=ERROR_THRESHOLD
    )
    dataset.encoded()  # the direct floor starts from an ingested dataset

    warm_session = Session()
    baseline = warm_session.run(workload)  # populate the session caches
    direct = engine.filter_encoded(dataset.encoded())
    if baseline.summary["n_accepted"] != direct.n_accepted:
        raise SystemExit("facade/direct decision mismatch — benchmark aborted")

    t_direct = timed(lambda: engine.filter_encoded(dataset.encoded()), REPEATS)
    t_warm = timed(lambda: warm_session.run(workload), REPEATS)
    t_cold = timed(lambda: Session().run(workload), REPEATS)

    payload = {
        "schema_version": SCHEMA_VERSION,
        "n_pairs": N_PAIRS,
        "repeats": REPEATS,
        "filter": FILTER_NAME,
        "error_threshold": ERROR_THRESHOLD,
        "per_call_s": {
            "direct_engine": round(t_direct, 6),
            "session_warm": round(t_warm, 6),
            "session_cold": round(t_cold, 6),
        },
        "facade_overhead_s_per_call": round(t_warm - t_direct, 6),
        "facade_overhead_pct": round(100.0 * (t_warm - t_direct) / t_direct, 2),
        "session_reuse_speedup": round(t_cold / t_warm, 3),
        "reads_per_s": {
            "direct_engine": round(N_PAIRS / t_direct, 1),
            "session_warm": round(N_PAIRS / t_warm, 1),
            "session_cold": round(N_PAIRS / t_cold, 1),
        },
    }
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
