"""Streaming-runtime smoke benchmark: in-memory vs chunked vs multi-device.

Unlike the table/figure benchmarks (which are pytest-benchmark modules), this
is a plain script so CI can run it without extra dependencies:

    PYTHONPATH=src python benchmarks/bench_streaming.py

It runs the same candidate pool through one warm ``Session`` three ways — in
memory mode (one chunk), in streaming mode (``chunk_size`` chunks, 1
device), and streamed across 4 simulated devices — and writes
``BENCH_streaming.json`` with measured reads/s plus the modelled
serial-vs-overlapped stream times.  The pool is built and encoded once,
outside the timed runs.

Environment knobs: ``REPRO_BENCH_STREAM_PAIRS`` (default 20,000) and
``REPRO_BENCH_STREAM_CHUNK`` (default 4,000).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import SCHEMA_VERSION, Session, Workload  # noqa: E402

N_PAIRS = int(os.environ.get("REPRO_BENCH_STREAM_PAIRS", "20000"))
CHUNK_SIZE = int(os.environ.get("REPRO_BENCH_STREAM_CHUNK", "4000"))
ERROR_THRESHOLD = 5
FILTER_NAME = "gatekeeper-gpu"
OUTPUT = Path(os.environ.get("REPRO_BENCH_STREAM_OUTPUT", "BENCH_streaming.json"))


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def workload(mode: str, n_devices: int = 1) -> Workload:
    return Workload.from_dict(
        {
            "input": {"kind": "dataset", "dataset": "Set 1", "n_pairs": N_PAIRS, "seed": 42},
            "filter": {"filter": FILTER_NAME, "error_threshold": ERROR_THRESHOLD},
            "execution": {
                "mode": mode,
                "chunk_size": CHUNK_SIZE,
                "n_devices": n_devices,
                "verify": False,
            },
        }
    )


def main() -> int:
    with Session() as session:
        session.dataset_for(workload("memory"))  # build + encode outside the timings
        in_memory, t_memory = timed(lambda: session.run(workload("memory")))
        streamed, t_stream = timed(lambda: session.run(workload("streaming")))
        multi, t_multi = timed(lambda: session.run(workload("streaming", n_devices=4)))
    if streamed.summary != in_memory.summary:
        raise SystemExit("streaming/in-memory totals mismatch — benchmark aborted")

    payload = {
        "schema_version": SCHEMA_VERSION,
        "n_pairs": N_PAIRS,
        "chunk_size": CHUNK_SIZE,
        "filter": FILTER_NAME,
        "error_threshold": ERROR_THRESHOLD,
        "reads_per_s": {
            "in_memory": round(N_PAIRS / t_memory, 1),
            "streaming_1gpu": round(N_PAIRS / t_stream, 1),
            "streaming_4gpu": round(N_PAIRS / t_multi, 1),
        },
        "wall_clock_s": {
            "in_memory": round(t_memory, 4),
            "streaming_1gpu": round(t_stream, 4),
            "streaming_4gpu": round(t_multi, 4),
        },
        "modelled": {
            "streaming_1gpu_serial_s": streamed.streaming["serial_time_s"],
            "streaming_1gpu_overlapped_s": streamed.streaming["overlapped_time_s"],
            "streaming_4gpu_serial_s": multi.streaming["serial_time_s"],
            "streaming_4gpu_overlapped_s": multi.streaming["overlapped_time_s"],
            "streaming_4gpu_overlap_speedup": multi.streaming["overlap_speedup"],
        },
        "n_chunks": streamed.streaming["n_chunks"],
        "reduction_pct": streamed.summary["reduction_pct"],
    }
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
