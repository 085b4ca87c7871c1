"""Throughput study: encoding actor, read length and multi-GPU scaling (Figures 6-8).

Run with::

    python examples/multi_gpu_throughput.py

The functional filtering runs on the vectorised NumPy kernel; the throughput
numbers at the paper's 30 M-pair scale come from the calibrated analytic
device model (GTX 1080 Ti for Setup 1, Tesla K20X for Setup 2), exactly as the
benchmark harness reports them.
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.analysis.experiments import (
    encoding_actor_rows,
    multi_gpu_rows,
    read_length_rows,
    table2_throughput_rows,
)
from repro.core import EncodingActor
from repro.engine import FilterEngine
from repro.gpusim import SETUP_1
from repro.simulate import build_dataset


def main() -> None:
    # A real (scaled) filtering run on 1, 4 and 8 simulated devices: decisions
    # are identical, only the modelled kernel time changes.
    dataset = build_dataset("Set 3", n_pairs=1_500, seed=5)
    print("Real filtering runs (decisions identical across device counts):")
    rows = []
    for n_devices in (1, 4, 8):
        gk = FilterEngine(
            "gatekeeper-gpu", read_length=100, error_threshold=2, setup=SETUP_1,
            n_devices=n_devices, encoding=EncodingActor.HOST,
        )
        result = gk.filter_encoded(dataset.encoded())
        rows.append({
            "devices": n_devices,
            "rejected": result.n_rejected,
            "kernel_time_ms": round(result.kernel_time_s * 1e3, 3),
            "filter_time_ms": round(result.filter_time_s * 1e3, 3),
            "wall_clock_ms": round(result.wall_clock_s * 1e3, 1),
        })
    print(format_table(rows))

    print()
    print(format_table(
        table2_throughput_rows(read_length=100, thresholds=(2, 5)),
        title="Table 2 — filtering throughput (billions of pairs / 40 min, paper scale)",
    ))
    print()
    print(format_table(
        encoding_actor_rows(read_length=100),
        title="Figure 6 — encoding actor vs throughput (M filtrations/s)",
    ))
    print()
    print(format_table(
        read_length_rows(error_threshold=4),
        title="Figure 7 — read length vs filter-time throughput (M filtrations/s)",
    ))
    print()
    print(format_table(
        multi_gpu_rows(read_length=100, error_threshold=2),
        title="Figure 8 — multi-GPU scaling, Setup 1 (M filtrations/s)",
    ))


if __name__ == "__main__":
    main()
