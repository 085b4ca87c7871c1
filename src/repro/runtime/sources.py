"""Candidate-pair sources for the streaming runtime.

The :class:`~repro.runtime.streaming.StreamingPipeline` consumes a plain
iterator of ``(read, reference_segment)`` string tuples, so any pair producer
can drive it.  This module provides the three producers the experiments need:

* :func:`iter_reads` — stream :class:`~repro.genomics.sequence.Read` records
  from a FASTQ or FASTA file (format detected from the file name, ``.gz``
  transparently supported);
* :func:`pairs_from_tsv` — stream pre-extracted pairs from a two-column
  tab-separated file (one ``read<TAB>segment`` per line), the on-disk
  equivalent of a :class:`~repro.simulate.pairs.PairDataset`;
* :func:`seeded_pairs` — the mapper-index source: stream reads against a
  reference genome, propose candidate locations with the mrFAST-style
  :class:`~repro.mapper.seeding.Seeder`, and emit one pair per candidate.

All producers are generators: nothing is materialised beyond the record in
flight, which is what gives the streaming pipeline its O(chunk) footprint.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator

from .._defaults import DEFAULT_MAX_CANDIDATES_PER_READ, DEFAULT_SEEDING_K
from ..genomics.fasta import iter_fasta, read_fasta
from ..genomics.fastq import iter_fastq
from ..genomics.opener import open_text
from ..genomics.reference import ReferenceGenome
from ..genomics.sequence import Read, Sequence
from ..mapper.index import KmerIndex
from ..mapper.seeding import Seeder

__all__ = [
    "ensure_pairs_path",
    "iter_reads",
    "load_reference",
    "pairs_from_dataset",
    "pairs_from_tsv",
    "seeded_pairs",
]

#: File suffixes recognised as FASTQ / FASTA (``.gz`` is stripped first).
FASTQ_SUFFIXES = {".fastq", ".fq"}
FASTA_SUFFIXES = {".fasta", ".fa", ".fna"}
PAIRS_SUFFIXES = {".tsv", ".pairs", ".txt"}


def _format_suffix(path: str | Path) -> str:
    """The format-bearing suffix of ``path`` (``.gz`` stripped)."""
    path = Path(path)
    suffixes = path.suffixes
    if suffixes and suffixes[-1] == ".gz":
        suffixes = suffixes[:-1]
    return suffixes[-1].lower() if suffixes else ""


def ensure_pairs_path(path: str | Path) -> Path:
    """Reject a FASTQ/FASTA path where a two-column pairs file is expected.

    The one home of this guard: the streaming pipeline and the Session's
    ``tsv`` input both route through it, so a read file passed without a
    reference fails with the same actionable message everywhere instead of
    a confusing parse error inside the TSV reader.
    """
    path = Path(path)
    suffix = _format_suffix(path)
    if suffix in FASTQ_SUFFIXES | FASTA_SUFFIXES:
        raise ValueError(
            f"{path}: looks like a read file ({suffix}); pass a "
            f"reference FASTA to seed candidate pairs against, or use "
            f"a two-column pairs file ({', '.join(sorted(PAIRS_SUFFIXES))}) "
            f"as the input"
        )
    return path


def iter_reads(path: str | Path) -> Iterator[Read]:
    """Stream read records from a FASTQ or FASTA file, detected by suffix.

    FASTA records are re-wrapped as :class:`Read` (empty quality) so both
    formats yield the same record type.
    """
    suffix = _format_suffix(path)
    if suffix in FASTQ_SUFFIXES:
        yield from iter_fastq(path)
    elif suffix in FASTA_SUFFIXES:
        for record in iter_fasta(path):
            yield Read(name=record.name, bases=record.bases)
    else:
        raise ValueError(
            f"{path}: unrecognised read-file suffix {suffix!r} "
            f"(expected one of {sorted(FASTQ_SUFFIXES | FASTA_SUFFIXES)})"
        )


def load_reference(path: str | Path) -> ReferenceGenome:
    """Load a (possibly multi-contig) FASTA reference into one coordinate space."""
    records = read_fasta(path)
    if not records:
        raise ValueError(f"{path}: reference FASTA contains no sequences")
    if len(records) == 1:
        return ReferenceGenome.from_sequence(records[0])
    return ReferenceGenome.concatenate(records)


def pairs_from_dataset(dataset) -> Iterator[tuple[str, str]]:
    """Stream the pairs of an in-memory :class:`~repro.simulate.pairs.PairDataset`."""
    yield from zip(dataset.reads, dataset.segments)


def pairs_from_tsv(path: str | Path) -> Iterator[tuple[str, str]]:
    """Stream ``(read, segment)`` pairs from a two-column tab-separated file.

    Blank lines and ``#`` comment lines are skipped.  Malformed lines raise a
    :class:`ValueError` naming the file and line number.
    """
    path = Path(path)
    with open_text(path, "r") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ValueError(
                    f"{path}: line {line_number}: expected 2 tab-separated "
                    f"columns (read, segment), found {len(fields)}"
                )
            read, segment = fields
            if not read or not segment:
                raise ValueError(
                    f"{path}: line {line_number}: empty read or segment column"
                )
            yield read, segment


def seeded_pairs(
    reads: Iterable[Read | Sequence | str] | str | Path,
    reference: ReferenceGenome | str | Path,
    error_threshold: int,
    k: int = DEFAULT_SEEDING_K,
    max_candidates_per_read: int = DEFAULT_MAX_CANDIDATES_PER_READ,
    index: KmerIndex | None = None,
) -> Iterator[tuple[str, str]]:
    """Stream candidate pairs proposed by the mapper index (seed-and-extend).

    Every read is seeded against a :class:`~repro.mapper.index.KmerIndex` of
    ``reference``; each candidate location yields one ``(read, segment)``
    pair, exactly the pool an mrFAST-style mapper would hand to the
    pre-alignment filter.  ``reads`` may be a FASTQ/FASTA path or any
    iterable of read records / strings; the index is built once, the reads
    are never materialised as a list.  A prebuilt ``index`` over the same
    reference (e.g. a :class:`repro.api.Session` cache entry) skips the
    index construction entirely.
    """
    if isinstance(reads, (str, Path)):
        reads = iter_reads(reads)
    if isinstance(reference, (str, Path)):
        reference = load_reference(reference)
    if index is None:
        index = KmerIndex(reference, k=k)
    seeder = Seeder(index, error_threshold, max_candidates_per_read)
    for read in reads:
        bases = read if isinstance(read, str) else read.bases
        for location in seeder.candidates(bases):
            yield bases, reference.segment(int(location), len(bases))
