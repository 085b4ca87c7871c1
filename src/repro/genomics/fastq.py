"""Minimal FASTQ reader/writer for simulated and real-style read sets.

One parser reads a FASTQ file: :func:`iter_fastq_blocks` takes the raw byte
lines a block of records at a time and checks the whole block with a few
C-level passes.  :func:`iter_fastq` builds :class:`Read` records from those
blocks, and the seeding source (:func:`repro.runtime.seeded_pairs`) takes the
blocks' bases as they are, with no per-read object.
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .opener import open_bytes as _open_bytes
from .opener import open_text as _open
from .sequence import Read

__all__ = ["FastqBlock", "read_fastq", "write_fastq", "iter_fastq", "iter_fastq_blocks"]

#: Records per block when :func:`iter_fastq` reads a file.
FASTQ_BLOCK_RECORDS = 1024

_FIRST_BYTE = itemgetter(0)


class FastqBlock(NamedTuple):
    """Consecutive well-formed records, line ends stripped, and what ended the block.

    ``error`` is the exception the next record raises (a malformed or
    truncated record), or ``None``.  A reader yields the block's records
    first and raises ``error`` after them, so a consumer that stops earlier
    never sees it.
    """

    headers: list[bytes]
    bases: list[bytes]
    qualities: list[bytes]
    error: Exception | None


def _record_error(path: Path, record: int, lines: list[bytes]) -> Exception | None:
    """Why the record on ``lines`` (1-4 raw lines) is malformed, or ``None``.

    The checks run in reading order: the ``@`` header, a truncated tail, the
    read name, the ``+`` line, the quality length, ASCII bases and quality.
    """
    header = lines[0].rstrip(b"\r\n")
    if not header.startswith(b"@"):
        return ValueError(
            f"{path}: FASTQ record {record}: header does not start "
            f"with '@': {header.decode('ascii', 'replace')!r}"
        )
    fields = header[1:].split()
    if len(lines) < 4:
        name = fields[0].decode("ascii", "replace") if fields else "?"
        return ValueError(
            f"{path}: FASTQ record {record} ({name}) is truncated: "
            f"expected 4 lines (header/sequence/'+'/quality), "
            f"file ended early"
        )
    if not fields:
        return ValueError(f"{path}: FASTQ record {record}: header has no read name")
    bases, plus, quality = (line.rstrip(b"\r\n") for line in lines[1:])
    if not plus.startswith(b"+"):
        return ValueError(
            f"{path}: FASTQ record {record}: missing '+' separator "
            f"line, found {plus.decode('ascii', 'replace')!r}"
        )
    if len(quality) != len(bases):
        return ValueError(
            f"{path}: FASTQ record {record}: quality length "
            f"{len(quality)} does not match sequence length {len(bases)}"
        )
    try:
        bases.decode("ascii")
        quality.decode("ascii")
    except UnicodeDecodeError as exc:
        return exc
    return None


def iter_fastq_blocks(
    path: str | Path, records: int = FASTQ_BLOCK_RECORDS
) -> Iterator[FastqBlock]:
    """Yield the records of a FASTQ file (optionally gzipped), ``records`` per block.

    Each block is checked as a whole: every header starts with ``@`` and
    names a read, every third line starts with ``+``, every quality line is
    as long as its bases, and both are ASCII.  When a check fails, the block
    ends before the first malformed record, which becomes the block's
    ``error``: a :class:`ValueError` naming the file and the 1-based record
    number (and the read name where there is one), so a bad read in a
    multi-gigabyte stream can be located without re-parsing.  Nothing
    follows a block that carries an error.
    """
    if records < 1:
        raise ValueError("records must be at least 1")
    path = Path(path)
    first = 1
    with _open_bytes(path) as handle:
        while True:
            lines = list(islice(handle, 4 * records))
            if not lines:
                return
            end = len(lines) - len(lines) % 4
            headers = lines[0:end:4]
            pluses = lines[2:end:4]
            bases = [line.rstrip(b"\r\n") for line in lines[1:end:4]]
            qualities = [line.rstrip(b"\r\n") for line in lines[3:end:4]]
            n = len(headers)
            well_formed = (
                end == len(lines)
                and bytes(map(_FIRST_BYTE, headers)).count(b"@") == n
                and b"@" not in map(bytes.rstrip, headers)
                and bytes(map(_FIRST_BYTE, pluses)).count(b"+") == n
                and list(map(len, bases)) == list(map(len, qualities))
                and b"".join(bases).isascii()
                and b"".join(qualities).isascii()
            )
            if well_formed:
                yield FastqBlock(headers, bases, qualities, None)
                first += n
                continue
            for at in range(0, len(lines), 4):
                error = _record_error(path, first + at // 4, lines[at : at + 4])
                if error is not None:
                    keep = at // 4
                    yield FastqBlock(headers[:keep], bases[:keep], qualities[:keep], error)
                    return
            raise AssertionError("a FASTQ block failed its checks but no record did")


def iter_fastq(path: str | Path) -> Iterator[Read]:
    """Yield :class:`Read` records from a FASTQ file (optionally gzipped).

    The records come from :func:`iter_fastq_blocks`, each field decoded to
    ``str`` once; a malformed or truncated record raises its
    :class:`ValueError` after every record before it.
    """
    for block in iter_fastq_blocks(path, FASTQ_BLOCK_RECORDS):
        for header, bases, quality in zip(block.headers, block.bases, block.qualities):
            yield Read(
                name=header[1:].split()[0].decode("ascii", "replace"),
                bases=bases.decode("ascii"),
                quality=quality.decode("ascii"),
            )
        if block.error is not None:
            raise block.error


def read_fastq(path: str | Path) -> list[Read]:
    """Read all records of a FASTQ file into memory."""
    return list(iter_fastq(path))


def write_fastq(path: str | Path, reads: Iterable[Read]) -> None:
    """Write reads to ``path`` in FASTQ format.

    Reads without a quality string are written with a constant high quality
    (``I`` == Q40), which is what Mason-style simulators emit by default.
    """
    with _open(path, "w") as handle:
        for read in reads:
            quality = read.quality or "I" * len(read)
            handle.write(f"@{read.name}\n{read.bases}\n+\n{quality}\n")
