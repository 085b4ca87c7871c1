"""Compare two benchmark result files written by ``bench/run.py --out``.

Usage: ``python3 bench/compare.py A.json B.json``

For every workload and metric in both files it prints A, B and the relative
change, and flags a metric OUT-OF-BOUND when B is worse than A by more than
the metric's bound in ``BENCHMARK.json``.  Per-layer metrics have no bound;
next to each, the end-to-end metrics it should move (``bench/layers.json``)
are printed, or ``(should not move)`` on a workload where it should not.
Exact fields (counts, false-accept share, input hashes) must be identical,
and ``error_rate`` must be 0 on both sides.  Exits 1 if anything is flagged.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
LAYERS = json.loads((BENCH / "layers.json").read_text())["layers"]


def moves(metric: str, workload: str) -> str:
    """What a per-layer metric should move on ``workload`` (empty: end-to-end metric)."""
    layer = LAYERS.get(metric)
    if layer is None:
        return ""
    if workload in layer["not_on"]:
        return "(should not move)"
    if workload in layer["on"]:
        return "moves " + ",".join(layer["moves"])
    return ""


def compare(a: dict[str, Any], b: dict[str, Any]) -> list[str]:
    """Print the comparison table; return the flags raised."""
    metrics = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    flags: list[str] = []
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in metrics:
            if metric not in wa["metrics"] or metric not in wb["metrics"]:
                continue
            va, vb = wa["metrics"][metric]["value"], wb["metrics"][metric]["value"]
            change = (vb - va) / va if va else 0.0
            worse = change if metrics[metric]["better"] == "lower" else -change
            bound = metrics[metric].get("bound")
            flag = "OUT-OF-BOUND" if bound is not None and worse > bound else ""
            if flag:
                flags.append(f"{name} {metric}")
            print(f"{name:<15} {metric:<36} {va:>14.6g} {vb:>14.6g} {change:>+8.2%} "
                  f"{flag or moves(metric, name)}")
        for field in ("exact", "hashes"):
            if wa[field] != wb[field]:
                flags.append(f"{name} {field}")
                print(f"{name:<15} {field} differ: {wa[field]} != {wb[field]}  EXACT-MISMATCH")
        for side, w in (("A", wa), ("B", wb)):
            if w["error_rate"] != 0 or not w["correct"]:
                flags.append(f"{name} error_rate {side}")
                print(f"{name:<15} error_rate {side} = {w['error_rate']} "
                      f"correct={w['correct']}  ERRORS")
    return flags


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    flags = compare(a, b)
    print(f"{len(flags)} flagged" + (": " + ", ".join(flags) if flags else ""))
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
