"""Multi-core execution benchmark: executor backends and streaming prefetch.

Like the other benchmarks this is a plain script so CI can run it without
extra dependencies:

    PYTHONPATH=src python benchmarks/bench_parallel.py

It measures, on a packed filter (gatekeeper-gpu):

* ``FilterEngine.filter_encoded`` wall clock for the ``serial``, ``threads``
  and ``processes`` backends at 1/2/4 workers (the processes backend ships
  the encoded batch through one shared-memory segment per fan-out), and
* a streamed pairs-TSV workload's wall clock with the prefetching
  producer/consumer off vs on (chunk ``N + 1`` parsed+encoded while chunk
  ``N`` filters),

verifying along the way that every backend produces decisions — and, via the
Session front door, canonical Result JSON — byte-identical to serial
execution.  Results go to ``BENCH_parallel.json``.

Parallel speedups are *measured*, not modelled, so they depend on the cores
actually available (recorded as ``cpu_count``); on a single-core runner the
backends can only tie serial execution, while the byte-identity checks are
hardware-independent.

Environment knobs: ``REPRO_BENCH_PARALLEL_PAIRS`` (default 150,000),
``REPRO_BENCH_PARALLEL_REPEATS`` (default 3) and
``REPRO_BENCH_PARALLEL_OUTPUT``.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import SCHEMA_VERSION, Session, Workload  # noqa: E402
from repro.engine import FilterEngine  # noqa: E402
from repro.exec import create_executor  # noqa: E402
from repro.simulate.datasets import build_dataset  # noqa: E402

N_PAIRS = int(os.environ.get("REPRO_BENCH_PARALLEL_PAIRS", "150000"))
REPEATS = int(os.environ.get("REPRO_BENCH_PARALLEL_REPEATS", "3"))
OUTPUT = Path(os.environ.get("REPRO_BENCH_PARALLEL_OUTPUT", "BENCH_parallel.json"))
FILTER = "gatekeeper-gpu"
ERROR_THRESHOLD = 5
WORKER_COUNTS = (1, 2, 4)
CHUNK_SIZE = 10_000


def timed(fn):
    """Best-of-``REPEATS`` wall time (first call also serves as the warm-up)."""
    result = fn()
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def bench_engine_backends(dataset, encoded):
    engine = FilterEngine(
        FILTER, read_length=dataset.read_length, error_threshold=ERROR_THRESHOLD
    )
    serial_result, serial_s = timed(lambda: engine.filter_encoded(encoded))
    rows = {"serial": {"1": _engine_row(serial_s, serial_s)}}
    for kind in ("threads", "processes"):
        rows[kind] = {}
        for workers in WORKER_COUNTS:
            executor = create_executor(kind, workers)
            try:
                result, wall_s = timed(
                    lambda: engine.filter_encoded(encoded, executor=executor)
                )
            finally:
                executor.close()
            if not (
                np.array_equal(result.accepted, serial_result.accepted)
                and np.array_equal(result.estimated_edits, serial_result.estimated_edits)
                and result.n_batches == serial_result.n_batches
            ):
                raise SystemExit(f"{kind} x{workers}: decisions diverged from serial")
            rows[kind][str(workers)] = _engine_row(wall_s, serial_s)
    return rows, serial_result.n_accepted


def _engine_row(wall_s, serial_s):
    return {
        "reads_per_s": round(N_PAIRS / wall_s, 1),
        "wall_s": round(wall_s, 4),
        "speedup_vs_serial": round(serial_s / wall_s, 3),
    }


def bench_streaming_prefetch(dataset):
    with tempfile.TemporaryDirectory() as tmp, Session() as session:
        path = Path(tmp) / "pairs.tsv"
        path.write_text(
            "".join(f"{r}\t{s}\n" for r, s in zip(dataset.reads, dataset.segments))
        )

        def run(prefetch):
            return session.run(
                Workload.from_dict(
                    {
                        "input": {"kind": "tsv", "path": str(path)},
                        "filter": {"filter": FILTER, "error_threshold": ERROR_THRESHOLD},
                        "execution": {"chunk_size": CHUNK_SIZE, "prefetch": prefetch,
                                      "verify": False},
                    }
                )
            )

        off_result, off_s = timed(lambda: run(False))
        on_result, on_s = timed(lambda: run(True))
    if off_result.to_json() != on_result.to_json():
        raise SystemExit("prefetch changed the streamed result")
    return {
        "chunk_size": CHUNK_SIZE,
        "prefetch_off_reads_per_s": round(N_PAIRS / off_s, 1),
        "prefetch_on_reads_per_s": round(N_PAIRS / on_s, 1),
        "speedup": round(off_s / on_s, 3),
    }


def check_result_json_identity():
    """Canonical Result JSON through the Session front door, all backends."""
    payloads = set()
    for kind, workers in [("serial", 1), ("threads", 2), ("threads", 4),
                          ("processes", 2), ("processes", 4)]:
        workload = Workload.from_dict(
            {
                "input": {"kind": "dataset", "dataset": "Set 1",
                          "n_pairs": 5000, "seed": 42},
                "filter": {"filter": FILTER, "error_threshold": ERROR_THRESHOLD},
                "execution": {"executor": kind, "workers": workers},
            }
        )
        with Session() as session:
            payloads.add(session.run(workload).to_json())
    if len(payloads) != 1:
        raise SystemExit("Result JSON differs across executor backends")
    return True


def main() -> int:
    dataset = build_dataset("Set 1", n_pairs=N_PAIRS, seed=42)
    encoded = dataset.encoded()
    encoded.read_words  # pack once, outside every timed region
    encoded.ref_words

    backends, n_accepted = bench_engine_backends(dataset, encoded)
    streaming = bench_streaming_prefetch(dataset)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "filter": FILTER,
        "n_pairs": N_PAIRS,
        "error_threshold": ERROR_THRESHOLD,
        "cpu_count": os.cpu_count(),
        "n_accepted": n_accepted,
        "engine_backends": backends,
        "streaming_prefetch": streaming,
        "result_json_byte_identical": check_result_json_identity(),
    }
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
