"""mrFAST-like short read mapper with optional pre-alignment filtering.

The mapper follows the structure of mrFAST as described in the paper
(Section 3.5): the reference is indexed once, reads are processed in batches,
seeding proposes candidate locations, the candidate pairs are (optionally)
passed through a pre-alignment filter in one batched kernel call, and only the
surviving pairs are verified with the dynamic-programming verifier.  Both the
measured Python wall clock and the paper-scale modelled times (verification
cost per pair, filter kernel time, preprocessing) are reported so the
whole-genome speedup tables can be regenerated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ..align.banded import banded_edit_distance
from ..filters.base import PreAlignmentFilter
from ..genomics.encoding import EncodedPairBatch
from ..genomics.reference import ReferenceGenome
from ..genomics.sequence import Read
from .index import KmerIndex
from .sam import SamRecord
from .seeding import Seeder
from .stats import MappingStats, MappingTimes

if TYPE_CHECKING:
    from ..engine import FilterCascade, FilterEngine

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
        ``None`` (no pre-alignment filter), a filtering engine
        (:class:`repro.engine.FilterEngine` or
        :class:`repro.engine.FilterCascade`), a bare
        :class:`PreAlignmentFilter` instance, or a registry name string such
        as ``"shouji"`` (resolved to a :class:`~repro.engine.FilterEngine`
        when the first read batch fixes the read length).
    max_reads_per_batch:
        Number of reads whose candidates are pooled into one filter batch
        (the Table 1 knob; 100,000 in the paper's best configuration).
    """

    def __init__(
        self,
        reference: ReferenceGenome,
        error_threshold: int,
        k: int = 12,
        prefilter: "FilterEngine | FilterCascade | PreAlignmentFilter | str | None" = None,
        max_candidates_per_read: int = 2048,
        max_reads_per_batch: int = 100_000,
        verification_cost_per_pair_s: float = VERIFICATION_COST_PER_PAIR_S,
    ):
        self.reference = reference
        self.error_threshold = int(error_threshold)
        self.index = KmerIndex(reference, k=k)
        self.seeder = Seeder(self.index, self.error_threshold, max_candidates_per_read)
        # Name specs are resolved into a FilterEngine lazily, when the first
        # read batch fixes the read length.
        self._prefilter_name = prefilter if isinstance(prefilter, str) else None
        self.prefilter = None if isinstance(prefilter, str) else prefilter
        self.max_reads_per_batch = max_reads_per_batch
        self.verification_cost_per_pair_s = verification_cost_per_pair_s

    # ------------------------------------------------------------------ #
    # Filtering stage
    # ------------------------------------------------------------------ #
    @property
    def filter_name(self) -> str:
        if self._prefilter_name is not None:
            from ..engine.registry import get_filter_class

            return get_filter_class(self._prefilter_name).name
        if self.prefilter is None:
            return "NoFilter"
        return self.prefilter.name

    def _resolve_prefilter(self, read_length: int):
        """Resolve a registry-name prefilter into an engine.

        The engine is rebuilt if a batch arrives with a different read length
        (the name spec is kept so the rebuild is transparent).
        """
        if self._prefilter_name is not None and (
            self.prefilter is None or self.prefilter.read_length != read_length
        ):
            from ..engine.engine import FilterEngine

            self.prefilter = FilterEngine(
                self._prefilter_name,
                read_length=read_length,
                error_threshold=self.error_threshold,
                max_reads_per_batch=self.max_reads_per_batch,
            )
        return self.prefilter

    def _apply_filter(
        self, reads: list[str], segments: list[str]
    ) -> tuple[np.ndarray, float, float, int]:
        """Return (accept mask, kernel_s, filter_s, undefined count) of the filter stage."""
        n = len(reads)
        if (self.prefilter is None and self._prefilter_name is None) or n == 0:
            return np.ones(n, dtype=bool), 0.0, 0.0, 0
        prefilter = self._resolve_prefilter(len(reads[0]))
        # Seeded candidate pairs are encoded exactly once per batch; engines
        # and bare filters alike consume the encoded batch directly.
        pairs = EncodedPairBatch.from_lists(reads, segments)
        if hasattr(prefilter, "filter_encoded"):
            result = prefilter.filter_encoded(pairs)
            return result.accepted, result.kernel_time_s, result.filter_time_s, result.n_undefined
        # Bare PreAlignmentFilter instance: run its batch kernel (identical
        # decisions to filter_pair, an order of magnitude faster).
        _, accepted = prefilter.filter_batch(pairs)
        return accepted, 0.0, 0.0, int(pairs.undefined.sum())

    # ------------------------------------------------------------------ #
    # Mapping
    # ------------------------------------------------------------------ #
    def map_reads(
        self, reads: "Sequence[Read | str] | Iterable[Read | str] | str | Path"
    ) -> MappingRunResult:
        """Map a read set and report mappings, statistics and times.

        ``reads`` may be a sequence of :class:`Read`/strings, any lazy
        iterator of them, or a FASTQ/FASTA file path: iterators and paths are
        consumed one batch (``max_reads_per_batch`` reads) at a time, so
        arbitrarily large read files are mapped in bounded memory.
        """
        if isinstance(reads, (str, Path)):
            from ..runtime.sources import iter_reads

            reads = iter_reads(reads)
        stats = MappingStats()
        times = MappingTimes()
        records: list[SamRecord] = []
        wall_start = time.perf_counter()

        read_iterator = iter(reads)
        read_index = 0
        length_factor = 1.0

        while True:
            raw_batch = list(islice(read_iterator, self.max_reads_per_batch))
            if not raw_batch:
                break
            batch = [
                r if isinstance(r, Read) else Read(name=f"read_{read_index + i}", bases=r)
                for i, r in enumerate(raw_batch)
            ]
            if read_index == 0:
                length_factor = (len(batch[0].bases) / 100.0) ** 2
            read_index += len(batch)
            stats.n_reads += len(batch)

            # --- Seeding: collect candidate pairs for the whole batch. ----- #
            pair_reads: list[str] = []
            pair_segments: list[str] = []
            pair_owner: list[int] = []
            pair_location: list[int] = []
            for local_index, read in enumerate(batch):
                for location in self.seeder.candidates(read.bases):
                    segment = self.reference.segment(int(location), len(read.bases))
                    pair_reads.append(read.bases)
                    pair_segments.append(segment)
                    pair_owner.append(local_index)
                    pair_location.append(int(location))
            stats.candidate_pairs += len(pair_reads)
            times.seeding_s += len(batch) * SEEDING_COST_PER_READ_S

            # --- Pre-alignment filtering (one batched call). -------------- #
            accepted, kernel_s, filter_s, undefined = self._apply_filter(
                pair_reads, pair_segments
            )
            stats.undefined_pairs += undefined
            times.filter_kernel_s += kernel_s
            times.filter_total_s += filter_s
            if self.prefilter is not None:
                times.preprocess_s += len(pair_reads) * PREPROCESS_COST_PER_PAIR_S

            survivors = np.flatnonzero(accepted)
            stats.verification_pairs += int(len(survivors))
            stats.rejected_pairs += int(len(pair_reads) - len(survivors))

            # --- Verification of surviving pairs. -------------------------- #
            mapped_in_batch: set[int] = set()
            for index in survivors:
                read_bases = pair_reads[int(index)]
                segment = pair_segments[int(index)]
                distance = banded_edit_distance(read_bases, segment, self.error_threshold)
                if distance <= self.error_threshold:
                    owner = pair_owner[int(index)]
                    mapped_in_batch.add(owner)
                    stats.mappings += 1
                    records.append(
                        SamRecord(
                            query_name=batch[owner].name,
                            reference_name=self.reference.name,
                            position=pair_location[int(index)],
                            mapping_quality=255,
                            cigar=f"{len(read_bases)}M",
                            sequence=read_bases,
                            edit_distance=distance,
                        )
                    )
            stats.mapped_reads += len(mapped_in_batch)
            times.verification_s += (
                len(survivors) * self.verification_cost_per_pair_s * length_factor
            )

        times.other_s = stats.n_reads * 1.0e-6  # input parsing / output writing
        times.wall_clock_s = time.perf_counter() - wall_start
        return MappingRunResult(
            records=records, stats=stats, times=times, filter_name=self.filter_name
        )
