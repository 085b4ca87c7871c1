"""Candidate-pair sources for the streaming runtime.

The :class:`~repro.runtime.streaming.StreamingPipeline` consumes an iterable
of :class:`~repro.genomics.encoding.EncodedPairBatch` blocks, so any pair
producer can drive it.  Strings end here, at ingest:

* :func:`seeded_pairs` — the mapper-index source: parse a FASTQ (or FASTA)
  read file a block of :data:`SEED_BLOCK_READS` reads at a time, encode each
  block's reads once, seed them against a reference genome with the
  mrFAST-style :class:`~repro.mapper.seeding.Seeder`, and yield one encoded
  batch of the block's candidate pairs, its segment codes gathered from the
  reference's cached codes;
* :func:`pair_blocks` — encode ``(read, segment)`` string pairs (a pairs
  TSV from :func:`pairs_from_tsv`, or in-memory pairs) a block at a time;
  a malformed line or a length mismatch ends the stream after the pairs
  before it;
* :func:`iter_reads` — stream :class:`~repro.genomics.sequence.Read` records
  from a FASTQ or FASTA file (format detected from the file name, ``.gz``
  transparently supported), for callers that want records.

All producers are generators: nothing is materialised beyond the block in
flight, which is what gives the streaming pipeline its O(chunk) footprint.
"""

from __future__ import annotations

from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .._defaults import DEFAULT_MAX_CANDIDATES_PER_READ, DEFAULT_SEEDING_K
from ..genomics.encoding import (
    EncodedPairBatch,
    encode_codes,
    gather_windows,
    non_acgt_positions,
)
from ..genomics.fasta import iter_fasta, read_fasta
from ..genomics.fastq import iter_fastq, iter_fastq_blocks
from ..genomics.opener import open_text
from ..genomics.reference import ReferenceGenome
from ..genomics.sequence import Read, Sequence
from ..mapper.index import KmerIndex
from ..mapper.seeding import Seeder

__all__ = [
    "ensure_pairs_path",
    "iter_reads",
    "load_reference",
    "pair_blocks",
    "pairs_from_tsv",
    "seeded_pairs",
]

#: File suffixes recognised as FASTQ / FASTA (``.gz`` is stripped first).
FASTQ_SUFFIXES = {".fastq", ".fq"}
FASTA_SUFFIXES = {".fasta", ".fa", ".fna"}
PAIRS_SUFFIXES = {".tsv", ".pairs", ".txt"}

#: Reads :func:`seeded_pairs` seeds per vector pass of the seeder.
SEED_BLOCK_READS = 1024


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


def pairs_from_tsv(path: str | Path) -> Iterator[tuple[str, str]]:
    """Stream ``(read, segment)`` pairs from a two-column tab-separated file.

    Blank lines and ``#`` comment lines are skipped.  Malformed lines raise a
    :class:`ValueError` naming the file and line number, and so does a pair
    whose read and segment lengths differ, or whose length differs from the
    first pair's (naming ``workload.input.path`` and both lengths); the
    pairs before the bad line are yielded first.
    """
    path = Path(path)
    length = None
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
            if length is None:
                length = len(read)
            if len(read) != length or len(segment) != length:
                where = f"workload.input.path: {path}: line {line_number}"
                if len(read) != len(segment):
                    raise ValueError(
                        f"{where}: the read has {len(read)} bases but its "
                        f"segment has {len(segment)}"
                    )
                raise ValueError(
                    f"{where}: the pair has {len(read)} bases, but the pairs "
                    f"before it have {length}; a tsv input takes one read length"
                )
            yield read, segment


def pair_blocks(
    pairs: Iterable[tuple[str, str]], block_pairs: int
) -> Iterator[EncodedPairBatch]:
    """Encode ``(read, segment)`` string pairs, ``block_pairs`` pairs per batch.

    A :class:`ValueError` raised by ``pairs`` (a bad line of a pairs TSV)
    ends the stream after a batch of the pairs before it, so a consumer that
    stops earlier never sees it.
    """
    pairs = iter(pairs)
    error: ValueError | None = None
    while error is None:
        block: list[tuple[str, str]] = []
        try:
            for pair in islice(pairs, block_pairs):
                block.append(pair)
        except ValueError as exc:
            error = exc
        if not block:
            break
        yield EncodedPairBatch.from_lists(
            [read for read, _segment in block], [segment for _read, segment in block]
        )
    if error is not None:
        raise error


def seeded_pairs(
    reads: Iterable[Read | Sequence | str] | str | Path,
    reference: ReferenceGenome | str | Path,
    error_threshold: int,
    k: int = DEFAULT_SEEDING_K,
    max_candidates_per_read: int = DEFAULT_MAX_CANDIDATES_PER_READ,
    index: KmerIndex | None = None,
) -> Iterator[EncodedPairBatch]:
    """Stream encoded candidate pairs proposed by the mapper index (seed-and-extend).

    Every read is seeded against a :class:`~repro.mapper.index.KmerIndex` of
    ``reference``, and each candidate location becomes one pair: exactly the
    pool an mrFAST-style mapper would hand to the pre-alignment filter.
    ``reads`` may be a FASTQ/FASTA path or any iterable of read records /
    strings.  The index is built once, and the reads are parsed, encoded
    and seeded one block of :data:`SEED_BLOCK_READS` at a time, so memory
    stays bounded by the block.  Each block yields one
    :class:`~repro.genomics.encoding.EncodedPairBatch`: its rows are the
    block's pairs, read by read and each read's locations ascending; the
    read rows repeat the block's codes by owner, and the segment rows are
    gathered by :meth:`~repro.genomics.reference.ReferenceGenome.segment_codes`.
    Every read with a candidate must have the length of the first such
    read; :func:`repro.genomics.encoding.decode_pairs` gives the pairs back
    as strings.

    A read that fails to parse, or that has candidates but a different
    length (a :class:`ValueError` naming ``workload.input.path`` and both
    lengths), ends the stream only after every pair of the reads before
    it, so a consumer that stops earlier never sees the error.  A prebuilt
    ``index`` over the same reference (e.g. a :class:`repro.api.Session`
    cache entry) skips the index construction entirely.
    """
    source = str(reads) if isinstance(reads, (str, Path)) else "reads"
    if isinstance(reference, (str, Path)):
        reference = load_reference(reference)
    if index is None:
        index = KmerIndex(reference, k=k)
    seeder = Seeder(index, error_threshold, max_candidates_per_read)
    length = None
    seen = 0
    for bases, error in _base_blocks(reads):
        lengths = np.fromiter(map(len, bases), dtype=np.int64, count=len(bases))
        codes = encode_codes(b"".join(bases))
        owner, locations = seeder.candidates_batch(codes, lengths)
        if owner.size:
            if length is None:
                length = int(lengths[owner[0]])
            mixed = np.flatnonzero(lengths[owner] != length)
            if mixed.size:
                bad = int(owner[mixed[0]])
                error = ValueError(
                    f"workload.input.path: {source}: read {seen + bad + 1} has "
                    f"{lengths[bad]} bases, but the reads before it have {length}; "
                    f"a reads input takes one read length"
                )
                owner, locations = owner[: mixed[0]], locations[: mixed[0]]
        if owner.size:
            read_starts = np.cumsum(lengths) - lengths
            yield EncodedPairBatch.from_codes(
                gather_windows(
                    codes, non_acgt_positions(codes), read_starts[owner], length
                ),
                reference.segment_codes(locations, length),
            )
        if error is not None:
            raise error
        seen += len(bases)


def _base_blocks(
    reads: Iterable[Read | Sequence | str] | str | Path,
) -> Iterator[tuple[list[bytes], Exception | None]]:
    """The bases of each block of :data:`SEED_BLOCK_READS` reads, and the error that cut it short.

    A FASTQ path goes through the block parser,
    :func:`~repro.genomics.fastq.iter_fastq_blocks`; FASTA paths and
    iterables are read record by record.  Nothing follows a block with an
    error.
    """
    if isinstance(reads, (str, Path)) and _format_suffix(reads) in FASTQ_SUFFIXES:
        for block in iter_fastq_blocks(reads, SEED_BLOCK_READS):
            yield block.bases, block.error
        return
    records = iter_reads(reads) if isinstance(reads, (str, Path)) else iter(reads)
    while True:
        block: list[bytes] = []
        try:
            for read in islice(records, SEED_BLOCK_READS):
                block.append((read if isinstance(read, str) else read.bases).encode("ascii"))
        except Exception as exc:  # any read error: raised after the block's pairs
            yield block, exc
            return
        yield block, None
        if len(block) < SEED_BLOCK_READS:
            return
