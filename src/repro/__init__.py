"""repro — a from-scratch Python reproduction of GateKeeper-GPU.

GateKeeper-GPU (Bingöl et al., 2021) is a fast and accurate pre-alignment
filter for short read mapping: it examines read / candidate-reference-segment
pairs with a lightweight bit-parallel algorithm on a GPU and rejects pairs
that cannot possibly be within the edit-distance threshold, sparing the mapper
most of its expensive dynamic-programming verifications.

Package map
-----------
``repro.api``       **The front door**: declarative :class:`Workload` specs
                    (TOML/JSON-loadable), a resident :class:`Session` that
                    caches engines/datasets/indexes across runs, and the
                    versioned :class:`Result` report schema.
``repro.genomics``  DNA alphabet, 2-bit encoding, sequence IO, reference genome.
``repro.filters``   GateKeeper, GateKeeper-GPU, SHD, MAGNET, Shouji, SneakySnake
                    (packed-word batch kernels plus the per-base reference).
``repro.engine``    Unified filtering API: string-keyed registry
                    (:func:`get_filter` / :func:`available_filters`),
                    :class:`FilterEngine` (any filter, batched + device-split +
                    timing-modelled) and :class:`FilterCascade`.  An engine is
                    a one-stage cascade: both share one ``filter_encoded``.
``repro.exec``      Execution backends: serial / thread-pool / process-pool
                    executors with shared-memory ``EncodedPairBatch`` transport
                    and one deterministic share fan-out running the stage walk
                    (results byte-identical across backends and worker counts).
``repro.align``     Exact edit distance (Edlib-equivalent) and banded verification.
``repro.simulate``  Synthetic genomes, Mason-like reads, candidate-pair pools.
``repro.gpusim``    Simulated GPU: devices, unified memory, occupancy, timing, power.
``repro.core``      The GateKeeper-GPU system pipeline (config, buffers, batch
                    sizing) and the one filtering result type,
                    :class:`FilterRunResult`, with its per-stage accounts.
``repro.mapper``    mrFAST-like seed-and-extend mapper with pluggable filtering.
``repro.runtime``   The one chunk runner behind every filtering run, plus the
                    FASTQ/FASTA/TSV pair sources: bounded memory, multi-device
                    sharding, stream-overlap model.
``repro.analysis``  Accuracy/throughput/speedup metrics and experiment drivers.

Quickstart
----------
>>> from repro import Session, Workload
>>> workload = Workload.from_dict({
...     "input": {"kind": "dataset", "dataset": "Set 1", "n_pairs": 1000},
...     "filter": {"filter": "sneakysnake", "error_threshold": 5},
... })
>>> result = Session().run(workload)                       # doctest: +SKIP
>>> result.summary["n_rejected"]                           # doctest: +SKIP

``Session`` runs every filtering workload through one chunk loop; the
filter engines below it (``FilterEngine``, ``FilterCascade``) remain
available for direct, batch-at-a-time use through their one entry point,
``filter_encoded(pairs, executor=None)``.
"""

from .api import Result, Session, Workload
from .core.config import EncodingActor
from .engine import (
    FilterCascade,
    FilterEngine,
    available_filters,
    get_filter,
    register_filter,
)
from .filters import (
    GateKeeperFilter,
    GateKeeperGPUFilter,
    MagnetFilter,
    SHDFilter,
    ShoujiFilter,
    SneakySnakeFilter,
)

__version__ = "13.0.0"

__all__ = [
    "Result",
    "Session",
    "Workload",
    "EncodingActor",
    "FilterCascade",
    "FilterEngine",
    "available_filters",
    "get_filter",
    "register_filter",
    "GateKeeperFilter",
    "GateKeeperGPUFilter",
    "MagnetFilter",
    "SHDFilter",
    "ShoujiFilter",
    "SneakySnakeFilter",
    "__version__",
]
