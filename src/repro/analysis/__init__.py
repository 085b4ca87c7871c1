"""Analysis and experiment drivers: accuracy, throughput, speedup and tables."""

from .accuracy import AccuracySummary, evaluate_decisions, labels_from_distances
from .speedup import SpeedupReport, compute_speedup
from .tables import format_series, format_table, print_table
from .throughput import (
    FORTY_MINUTES_S,
    ThroughputEntry,
    billions_in_40_minutes,
    millions_per_second,
    pairs_per_second,
)
from . import experiments

__all__ = [
    "AccuracySummary",
    "evaluate_decisions",
    "labels_from_distances",
    "SpeedupReport",
    "compute_speedup",
    "format_series",
    "format_table",
    "print_table",
    "FORTY_MINUTES_S",
    "ThroughputEntry",
    "billions_in_40_minutes",
    "millions_per_second",
    "pairs_per_second",
    "experiments",
]
