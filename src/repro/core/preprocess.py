"""Preprocessing: kernel batch sizing (paper Section 3.3).

Reads and candidate segments are gathered into batches sized by the system
configuration.  The sequences arrive as an
:class:`~repro.genomics.encoding.EncodedPairBatch` built once at ingest, and
:meth:`repro.engine.FilterEngine.filter_encoded_share` cuts each kernel
batch as a row-slice view of it.  Whether the host or the device encodes is
a matter for the analytic timing model (who pays for the 2-bit packing and
how many bytes travel); the packing itself happens once per pair either way.
"""

from __future__ import annotations

from .config import SystemConfiguration

__all__ = ["kernel_batch_size"]


def kernel_batch_size(config: SystemConfiguration, n_pairs: int) -> int:
    """Pairs per kernel call when one device share of ``n_pairs`` is batched.

    The configuration's launch batch size for the share, bounded by device
    memory and by ``max_reads_per_batch``.  The batches
    :meth:`~repro.engine.FilterEngine.filter_encoded_share` runs and the
    kernel-call count :func:`repro.exec.fanout.expected_n_batches` reports
    both follow it.
    """
    if n_pairs == 0:
        return 1
    return max(1, min(config.batch_size(n_pairs) or n_pairs, config.max_reads_per_batch))
