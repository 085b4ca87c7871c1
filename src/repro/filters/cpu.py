"""GateKeeper-CPU: the multi-core CPU baseline used in the throughput comparison.

The paper implements a multicore CPU version of GateKeeper ("to maintain
fairness as much as possible, we implement GateKeeper-CPU in a multicore
fashion and report the results of 12 cores", Section 4.3).  This class is the
software equivalent: it runs the same mask pipeline as the GPU kernel, but
chunk-by-chunk across a worker pool instead of in one device-wide batch.  On a
single-core machine the thread pool degenerates gracefully; the class is still
useful because it exposes the chunked execution path, per-worker statistics
and the analytic 1/12-core timing used by Table 2.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..genomics.encoding import EncodedPairBatch
from ..gpusim.device import HostSpec, XEON_GOLD_6140
from ..gpusim.timing import CpuTimingModel
from .gatekeeper import GateKeeperFilter
from .gatekeeper_gpu import GateKeeperGPUFilter
from .masks import EdgePolicy

__all__ = ["CpuFilterResult", "GateKeeperCPU"]


@dataclass
class CpuFilterResult:
    """Decisions plus timing of a GateKeeper-CPU run."""

    estimated_edits: np.ndarray  # (n_pairs,) int32
    accepted: np.ndarray  # (n_pairs,) bool
    undefined: np.ndarray  # (n_pairs,) bool
    threads: int
    chunks: int
    wall_clock_s: float
    kernel_time_s: float
    filter_time_s: float

    @property
    def n_rejected(self) -> int:
        return int(self.accepted.size - self.accepted.sum())


class GateKeeperCPU:
    """Multicore CPU implementation of the (improved) GateKeeper algorithm.

    Parameters
    ----------
    error_threshold:
        Edit threshold for acceptance.
    threads:
        Worker threads (the paper reports 1- and 12-core results).
    edge_policy:
        ``EdgePolicy.ONE`` runs the GateKeeper-GPU algorithm on the CPU
        (the default, matching the paper's GateKeeper-CPU);
        ``EdgePolicy.ZERO`` runs the original GateKeeper semantics.
    chunk_size:
        Pairs per work item submitted to the pool.
    host:
        Host CPU description used for the paper-scale analytic timing.
    """

    name = "GateKeeper-CPU"

    def __init__(
        self,
        error_threshold: int,
        threads: int = 1,
        edge_policy: str = EdgePolicy.ONE,
        chunk_size: int = 4096,
        host: HostSpec = XEON_GOLD_6140,
    ):
        if error_threshold < 0:
            raise ValueError("error_threshold must be non-negative")
        if threads < 1:
            raise ValueError("threads must be at least 1")
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        self.error_threshold = int(error_threshold)
        self.threads = int(threads)
        self.edge_policy = edge_policy
        self.chunk_size = int(chunk_size)
        self.timing_model = CpuTimingModel(host)
        filter_cls = GateKeeperGPUFilter if edge_policy == EdgePolicy.ONE else GateKeeperFilter
        self.filter = filter_cls(error_threshold)

    def filter_lists(self, reads: Sequence[str], segments: Sequence[str]) -> CpuFilterResult:
        """Filter parallel lists of reads and candidate segments."""
        if len(reads) != len(segments):
            raise ValueError("reads and segments must have the same length")
        if not reads:
            raise ValueError("cannot filter an empty work list")
        read_length = len(reads[0])

        wall_start = time.perf_counter()
        # Encode once for the whole work list — no list copy is forced on the
        # caller's sequence, and worker chunks below are row-slice views.
        pairs = EncodedPairBatch.from_lists(reads, segments)

        n = len(reads)
        bounds = list(range(0, n, self.chunk_size)) + [n]
        chunks = [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]

        def run(span: tuple[int, int]) -> "tuple[np.ndarray, np.ndarray]":
            lo, hi = span
            return self.filter.filter_batch(pairs[lo:hi])

        if self.threads == 1 or len(chunks) == 1:
            results = [run(span) for span in chunks]
        else:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                results = list(pool.map(run, chunks))
        estimates = np.concatenate([chunk_estimates for chunk_estimates, _ in results])
        accepted = np.concatenate([chunk_accepted for _, chunk_accepted in results])
        wall_clock = time.perf_counter() - wall_start

        return CpuFilterResult(
            estimated_edits=estimates,
            accepted=accepted,
            undefined=pairs.undefined,
            threads=self.threads,
            chunks=len(chunks),
            wall_clock_s=wall_clock,
            kernel_time_s=self.timing_model.kernel_time(
                n, read_length, self.error_threshold, threads=self.threads
            ),
            filter_time_s=self.timing_model.filter_time(
                n, read_length, self.error_threshold, threads=self.threads
            ),
        )

    def filter_dataset(self, dataset) -> CpuFilterResult:
        """Filter a :class:`repro.simulate.PairDataset`."""
        return self.filter_lists(dataset.reads, dataset.segments)
