"""Encode-once benchmark: strings-per-stage vs pre-encoded EncodedPairBatch.

Like ``bench_streaming.py`` this is a plain script so CI can run it without
extra dependencies:

    PYTHONPATH=src python benchmarks/bench_encode_once.py

For every registered filter it measures filtering from strings
(``EncodedPairBatch.from_lists`` then ``FilterEngine.filter_encoded`` — one
encode per run) against the encode-once hot path
(``FilterEngine.filter_encoded`` on the dataset's cached
:class:`~repro.genomics.encoding.EncodedPairBatch` — zero encodes per run),
and for the gatekeeper-gpu -> sneakysnake cascade it additionally measures
a *strings-per-stage* execution (each stage re-filters survivor string
lists rebuilt in Python, re-encoding them from scratch) against
``FilterCascade.filter_encoded`` (survivors are index selections on the
parent batch).  Results go to ``BENCH_encode_once.json``.

Environment knobs: ``REPRO_BENCH_ENCODE_PAIRS`` (default 20,000) and
``REPRO_BENCH_ENCODE_OUTPUT``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import SCHEMA_VERSION  # noqa: E402

from repro.engine import FilterCascade, FilterEngine, available_filters  # noqa: E402
from repro.genomics.encoding import EncodedPairBatch  # noqa: E402
from repro.simulate.datasets import build_dataset  # noqa: E402

N_PAIRS = int(os.environ.get("REPRO_BENCH_ENCODE_PAIRS", "20000"))
ERROR_THRESHOLD = 5
CASCADE = ["gatekeeper-gpu", "sneakysnake"]
OUTPUT = Path(os.environ.get("REPRO_BENCH_ENCODE_OUTPUT", "BENCH_encode_once.json"))


REPEATS = int(os.environ.get("REPRO_BENCH_ENCODE_REPEATS", "3"))


def timed(fn):
    """Best-of-``REPEATS`` wall time (first call also serves as the warm-up)."""
    result = fn()
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def strings_per_stage_cascade(stages, reads, segments):
    """The pre-encode-once cascade: survivor string lists rebuilt per stage."""
    alive = np.arange(len(reads))
    result = None
    for stage in stages:
        result = stage.filter_encoded(
            EncodedPairBatch.from_lists(
                [reads[i] for i in alive], [segments[i] for i in alive]
            )
        )
        alive = alive[result.accepted_indices()]
        if len(alive) == 0:
            break
    return alive


def main() -> int:
    dataset = build_dataset("Set 1", n_pairs=N_PAIRS, seed=42)
    encoded = dataset.encoded()  # encode once, outside every timed region
    # Warm the kernels (allocator pools, cached lane masks) outside the timers.
    FilterEngine(
        "gatekeeper-gpu", read_length=dataset.read_length, error_threshold=ERROR_THRESHOLD
    ).filter_encoded(encoded)

    filters = {}
    for name in available_filters():
        engine = FilterEngine(
            name, read_length=dataset.read_length, error_threshold=ERROR_THRESHOLD
        )
        strings_result, t_strings = timed(
            lambda e=engine: e.filter_encoded(
                EncodedPairBatch.from_lists(dataset.reads, dataset.segments)
            )
        )
        encoded_result, t_encoded = timed(lambda e=engine: e.filter_encoded(encoded))
        if strings_result.n_accepted != encoded_result.n_accepted:
            raise SystemExit(f"{name}: strings/encoded decision mismatch")
        filters[name] = {
            "strings_reads_per_s": round(N_PAIRS / t_strings, 1),
            "encode_once_reads_per_s": round(N_PAIRS / t_encoded, 1),
            "speedup": round(t_strings / t_encoded, 3),
            "n_accepted": strings_result.n_accepted,
        }

    cascade = FilterCascade.from_names(
        CASCADE, read_length=dataset.read_length, error_threshold=ERROR_THRESHOLD
    )
    legacy_alive, t_legacy = timed(
        lambda: strings_per_stage_cascade(cascade.stages, dataset.reads, dataset.segments)
    )
    cascade_result, t_cascade = timed(lambda: cascade.filter_encoded(encoded))
    if len(legacy_alive) != cascade_result.n_accepted:
        raise SystemExit("cascade: strings-per-stage/encode-once decision mismatch")

    payload = {
        "schema_version": SCHEMA_VERSION,
        "n_pairs": N_PAIRS,
        "error_threshold": ERROR_THRESHOLD,
        "filters": filters,
        "cascade": {
            "stages": CASCADE,
            "strings_per_stage_reads_per_s": round(N_PAIRS / t_legacy, 1),
            "encode_once_reads_per_s": round(N_PAIRS / t_cascade, 1),
            "speedup": round(t_legacy / t_cascade, 3),
            "n_accepted": cascade_result.n_accepted,
        },
    }
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
