"""Preprocessing: batching and (host- or device-side) encoding (paper Section 3.3).

Reads and candidate segments are gathered into batches sized by the system
configuration.  Since the encode-once redesign the sequences arrive as an
:class:`~repro.genomics.encoding.EncodedPairBatch` built exactly once at
ingest; a :class:`PreparedBatch` is a zero-copy row-slice view of that parent
batch, so neither strings nor code arrays are ever rebuilt per batch.  The
host/device encoding-actor distinction is preserved for the analytic timing
model (who pays for the 2-bit packing and how many bytes travel), with the
functional packing performed once per pair either way.  Pairs containing
``N`` are flagged *undefined* and bypass filtration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..genomics.encoding import EncodedPairBatch
from .config import EncodingActor, SystemConfiguration

__all__ = [
    "PreparedBatch",
    "kernel_batch_size",
    "prepare_batches_encoded",
]


@dataclass
class PreparedBatch:
    """One batch of pairs staged for a kernel call.

    A view of ``pairs.n_pairs`` rows of the parent
    :class:`~repro.genomics.encoding.EncodedPairBatch` starting at ``start``.
    ``read_codes`` / ``ref_codes`` are the per-base code arrays;
    ``read_words`` / ``ref_words`` are the packed word arrays, materialised
    lazily by the parent batch (and therefore at most once per pair).
    ``host_encoded`` records who the timing model bills for the packing.
    """

    start: int
    pairs: EncodedPairBatch
    host_encoded: bool = False

    @property
    def n_pairs(self) -> int:
        return self.pairs.n_pairs

    @property
    def read_codes(self) -> np.ndarray:
        return self.pairs.read_codes

    @property
    def ref_codes(self) -> np.ndarray:
        return self.pairs.ref_codes

    @property
    def undefined(self) -> np.ndarray:
        return self.pairs.undefined

    @property
    def read_words(self) -> np.ndarray:
        return self.pairs.read_words

    @property
    def ref_words(self) -> np.ndarray:
        return self.pairs.ref_words


def kernel_batch_size(config: SystemConfiguration, n_pairs: int) -> int:
    """Pairs per kernel call when one device share of ``n_pairs`` is batched.

    The configuration's launch batch size for the share, bounded by device
    memory and by ``max_reads_per_batch``.  The batches
    :func:`prepare_batches_encoded` yields and the kernel-call count
    :func:`repro.exec.fanout.expected_n_batches` reports both follow it.
    """
    if n_pairs == 0:
        return 1
    return max(1, min(config.batch_size(n_pairs) or n_pairs, config.max_reads_per_batch))


def prepare_batches_encoded(
    pairs: EncodedPairBatch, config: SystemConfiguration
) -> Iterator[PreparedBatch]:
    """Yield :class:`PreparedBatch` views covering all pairs in order.

    Batches hold :func:`kernel_batch_size` pairs.  No encoding happens here:
    every batch is a row-slice view of ``pairs``.
    """
    n = pairs.n_pairs
    if n == 0:
        return
    batch_size = kernel_batch_size(config, n)
    host_encoded = config.encoding is EncodingActor.HOST
    if host_encoded:
        # Host encoding packs the whole staged share up front; touching the
        # lazy word arrays here makes every batch view below zero-copy.
        pairs.read_words
        pairs.ref_words
    for start in range(0, n, batch_size):
        yield PreparedBatch(
            start=start,
            pairs=pairs[start : start + batch_size],
            host_encoded=host_encoded,
        )
