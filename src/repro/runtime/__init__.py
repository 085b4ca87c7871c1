"""Runtime: the chunk loop every filtering run goes through, and its sources.

:mod:`repro.runtime.streaming` holds the one chunk runner,
:class:`~repro.runtime.streaming.StreamingPipeline`, which
:class:`repro.api.Session` constructs for every filtering workload (one chunk
in memory mode, ``chunk_size`` chunks in streaming mode).  This package
exports the candidate-pair sources it consumes: FASTQ/FASTA readers, pairs
TSVs and the mapper-index seeding source.  To run a file, declare it as a
workload:

>>> from repro.api import Session, Workload
>>> workload = Workload.from_dict({
...     "input": {"kind": "reads", "path": "reads.fastq", "reference": "ref.fasta"},
...     "filter": {"filter": "shouji", "error_threshold": 5},
...     "execution": {"chunk_size": 10_000},
... })
>>> Session().run(workload).summary                # doctest: +SKIP

Peak memory is O(chunk_size) regardless of the input size; ``repro run``
is the CLI front end.
"""

from .sources import (
    iter_reads,
    load_reference,
    pairs_from_dataset,
    pairs_from_tsv,
    seeded_pairs,
)

__all__ = [
    "iter_reads",
    "load_reference",
    "pairs_from_dataset",
    "pairs_from_tsv",
    "seeded_pairs",
]
