"""mrFAST-like short read mapper with optional pre-alignment filtering.

The mapper follows the structure of mrFAST as described in the paper
(Section 3.5): the reference is encoded and indexed once, reads are processed
in batches, and seeding proposes each batch's candidate locations.  A batch's
reads are encoded once; its candidate pairs are code rows gathered from the
batch's and the reference's codes (no segment strings), passed through the
pre-alignment filter in one ``filter_encoded`` call, and only the survivors
are verified, in one :meth:`~repro.align.Verifier.verify_batch` pass: the
two primitives every filtering workload's chunk runner uses.  A batch may
mix read lengths; its candidates are then gathered, filtered and verified
one read length at a time, and reported in candidate order.  Both the
measured Python wall clock and the paper-scale modelled times (verification
cost per pair, filter kernel time, preprocessing) are reported so the
whole-genome speedup tables can be regenerated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ..align.verification import Verifier
from ..genomics.encoding import (
    EncodedPairBatch,
    encode_codes,
    gather_windows,
    non_acgt_positions,
)
from ..genomics.reference import ReferenceGenome
from ..genomics.sequence import Read
from .index import KmerIndex
from .sam import SamRecord
from .seeding import Seeder
from .stats import MappingStats, MappingTimes

if TYPE_CHECKING:
    from ..engine import FilterCascade, FilterEngine
    from ..exec.executor import Executor

__all__ = ["MappingRunResult", "MrFastMapper"]

#: Calibrated per-pair verification cost (single source: repro.api.defaults).
from .._defaults import VERIFICATION_COST_PER_PAIR_S  # noqa: E402
#: Modelled per-read seeding cost (hash lookups + candidate merging).
SEEDING_COST_PER_READ_S = 2.0e-6
#: Modelled per-pair host-side preprocessing cost of the GPU filter integration.
PREPROCESS_COST_PER_PAIR_S = 300.0e-9


@dataclass
class MappingRunResult:
    """Everything produced by one mapping run."""

    records: list[SamRecord]
    stats: MappingStats
    times: MappingTimes
    filter_name: str = "NoFilter"

    def summary(self) -> dict:
        out = {"filter": self.filter_name}
        out.update(self.stats.summary())
        out.update(self.times.summary())
        return out


class MrFastMapper:
    """Seed-and-extend mapper with a pluggable pre-alignment filter.

    Parameters
    ----------
    reference:
        The reference genome to map against.
    error_threshold:
        mrFAST's edit-distance threshold (also used for filtering).
    k:
        Seed length of the k-mer index.
    prefilter:
        ``None`` (no pre-alignment filter) or a filtering engine,
        :class:`repro.engine.FilterEngine` or
        :class:`repro.engine.FilterCascade`, built for the reads' length.
    max_reads_per_batch:
        Number of reads whose candidates are pooled into one filter batch
        (the Table 1 knob; 100,000 in the paper's best configuration).
    index:
        A prebuilt :class:`KmerIndex` over ``reference`` (e.g. a
        :class:`repro.api.Session` cache entry), used instead of building one;
        ``k`` is then ignored.
    """

    def __init__(
        self,
        reference: ReferenceGenome,
        error_threshold: int,
        k: int = 12,
        prefilter: "FilterEngine | FilterCascade | None" = None,
        max_candidates_per_read: int = 2048,
        max_reads_per_batch: int = 100_000,
        verification_cost_per_pair_s: float = VERIFICATION_COST_PER_PAIR_S,
        index: KmerIndex | None = None,
    ):
        if max_reads_per_batch < 1:
            raise ValueError(
                f"max_reads_per_batch must be at least 1, got {max_reads_per_batch}"
            )
        if prefilter is not None and not hasattr(prefilter, "filter_encoded"):
            raise TypeError(
                "prefilter must be a FilterEngine, a FilterCascade or None, "
                f"not {type(prefilter).__name__}"
            )
        self.reference = reference
        self.error_threshold = int(error_threshold)
        self.index = KmerIndex(reference, k=k) if index is None else index
        self.seeder = Seeder(self.index, self.error_threshold, max_candidates_per_read)
        self.prefilter = prefilter
        self.max_reads_per_batch = max_reads_per_batch
        self.verification_cost_per_pair_s = verification_cost_per_pair_s

    @property
    def filter_name(self) -> str:
        return "NoFilter" if self.prefilter is None else self.prefilter.name

    def map_reads(
        self,
        reads: "Sequence[Read | str] | Iterable[Read | str] | str | Path",
        executor: "Executor | None" = None,
    ) -> MappingRunResult:
        """Map a read set and report mappings, statistics and times.

        ``reads`` may be a sequence of :class:`Read`/strings, any lazy
        iterator of them, or a FASTQ/FASTA file path: iterators and paths are
        consumed one batch (``max_reads_per_batch`` reads) at a time, so
        arbitrarily large read files are mapped in bounded memory.  Each
        filter call fans out across ``executor``'s workers (one serial share
        when ``None``); the mapping is the same for every backend.
        """
        if isinstance(reads, (str, Path)):
            from ..runtime.sources import iter_reads

            reads = iter_reads(reads)
        stats = MappingStats()
        times = MappingTimes()
        records: list[SamRecord] = []
        verifier = Verifier(self.error_threshold)
        wall_start = time.perf_counter()

        read_iterator = iter(reads)
        length_factor = 1.0

        while True:
            raw_batch = list(islice(read_iterator, self.max_reads_per_batch))
            if not raw_batch:
                break
            batch = [
                r if isinstance(r, Read) else Read(name=f"read_{stats.n_reads + i}", bases=r)
                for i, r in enumerate(raw_batch)
            ]
            if stats.n_reads == 0:
                length_factor = (len(batch[0].bases) / 100.0) ** 2
            stats.n_reads += len(batch)

            # --- Seeding: collect candidate pairs for the whole batch. ----- #
            codes = encode_codes("".join(read.bases for read in batch))
            read_lengths = np.fromiter(
                (len(read.bases) for read in batch), dtype=np.int64, count=len(batch)
            )
            read_starts = np.cumsum(read_lengths) - read_lengths
            owner, locations = self.seeder.candidates_batch(codes, read_lengths)
            lengths = read_lengths[owner]
            n_candidates = owner.size
            stats.candidate_pairs += n_candidates
            times.seeding_s += len(batch) * SEEDING_COST_PER_READ_S
            if self.prefilter is not None:
                times.preprocess_s += n_candidates * PREPROCESS_COST_PER_PAIR_S

            # --- Filter (one batched call), then verify the survivors. ----- #
            # One encoded batch per read length; distances above e mark
            # candidates that were rejected or failed verification.
            distances = np.full(n_candidates, self.error_threshold + 1, dtype=np.int32)
            n_survivors = 0
            undefined_positions = non_acgt_positions(codes)
            for length in np.unique(lengths).tolist():
                rows = np.flatnonzero(lengths == length)
                pairs = EncodedPairBatch.from_codes(
                    gather_windows(
                        codes, undefined_positions, read_starts[owner[rows]], length
                    ),
                    self.reference.segment_codes(locations[rows], length),
                )
                survivors = np.arange(rows.size)
                if self.prefilter is not None:
                    result = self.prefilter.filter_encoded(pairs, executor=executor)
                    stats.undefined_pairs += result.n_undefined
                    times.filter_kernel_s += result.kernel_time_s
                    times.filter_total_s += result.filter_time_s
                    survivors = np.flatnonzero(result.accepted)
                distances[rows[survivors]] = verifier.verify_batch(pairs, survivors)
                n_survivors += survivors.size
            stats.verification_pairs += n_survivors
            stats.rejected_pairs += n_candidates - n_survivors
            times.verification_s += (
                n_survivors * self.verification_cost_per_pair_s * length_factor
            )

            # --- Mappings, in candidate order. ----------------------------- #
            mapped = np.flatnonzero(distances <= self.error_threshold)
            stats.mappings += mapped.size
            stats.mapped_reads += np.unique(owner[mapped]).size
            for row in mapped.tolist():
                read = batch[owner[row]]
                records.append(
                    SamRecord(
                        query_name=read.name,
                        reference_name=self.reference.name,
                        position=int(locations[row]),
                        mapping_quality=255,
                        cigar=f"{len(read.bases)}M",
                        sequence=read.bases,
                        edit_distance=int(distances[row]),
                    )
                )

        times.other_s = stats.n_reads * 1.0e-6  # input parsing / output writing
        times.wall_clock_s = time.perf_counter() - wall_start
        return MappingRunResult(
            records=records, stats=stats, times=times, filter_name=self.filter_name
        )
