"""The one front door: declarative workloads, a resident session, one report.

This package is the entry point for every filtering and mapping run, behind
three types:

:class:`Workload`
    A typed, validated, declarative description of one job: input source
    (simulated dataset, in-memory pairs, pairs TSV, or FASTQ+FASTA seeded by
    the mapper index), filter or cascade + threshold, execution mode /
    devices / chunking, and output options.  Loads from TOML/JSON files and
    plain dicts.

:class:`Session`
    A resident executor that owns constructed engines, cached datasets (with
    their encode-once :class:`~repro.genomics.encoding.EncodedPairBatch`),
    reference genomes and seeding indexes, and runs any number of workloads
    without rebuilding state — the object a queue worker or HTTP layer
    mounts.

:class:`Result`
    The single versioned report schema (``schema_version``) every front end
    emits: canonical summary keys, cascade stage accounting, streaming
    extras, per-chunk rows.

>>> from repro.api import Session, Workload
>>> workload = Workload.from_dict({
...     "input": {"kind": "dataset", "dataset": "Set 1", "n_pairs": 1000},
...     "filter": {"filter": "sneakysnake", "error_threshold": 5},
... })
>>> result = Session().run(workload)          # doctest: +SKIP
>>> print(result.to_json())                   # doctest: +SKIP

The ``repro-*`` CLIs are flag-to-workload adapters over the same session.
"""

from . import defaults
from .result import SCHEMA_VERSION, Result
from .session import Session
from .workload import (
    EXECUTION_MODES,
    INPUT_KINDS,
    ExecutionSpec,
    FilterSpec,
    InputSpec,
    OutputSpec,
    PlannerSpec,
    Workload,
)

__all__ = [
    "defaults",
    "SCHEMA_VERSION",
    "Result",
    "Session",
    "Workload",
    "InputSpec",
    "FilterSpec",
    "PlannerSpec",
    "ExecutionSpec",
    "OutputSpec",
    "INPUT_KINDS",
    "EXECUTION_MODES",
]
