"""``encode-once``: sequences are encoded exactly once, at the ingest seams.

The whole encode-once architecture (PR 3) threads an
:class:`~repro.genomics.encoding.EncodedPairBatch` from ingest through every
filter, executor and cascade stage; re-running ``encode_batch_codes`` or
constructing a fresh ``EncodedPairBatch`` deep in the stack silently redoes
the O(n·L) encode work the design exists to avoid — and worse, can diverge
from the ingest-time undefined-base accounting.  This rule confines those
two spellings to the whitelisted ingest seams; everything else must accept an
already-encoded batch (or go through ``EncodedPairBatch.from_lists``, the one
blessed ingest API, which is only defined at a seam anyway).
"""

from __future__ import annotations

import ast

from ..engine import Rule, Violation, terminal_name

__all__ = ["EncodeOnceRule", "INGEST_SEAMS"]

#: Modules allowed to encode raw sequences or assemble encoded batches:
#: the encoding layer itself and the shared-memory transport (which
#: *re-wraps* already encoded arrays around attached buffers — zero-copy,
#: not a re-encode).
INGEST_SEAMS = (
    "repro/genomics/encoding.py",
    "repro/exec/shared_batch.py",
)


class EncodeOnceRule(Rule):
    rule_id = "encode-once"
    contract = (
        "encode_batch_codes / EncodedPairBatch(...) construction only in "
        "whitelisted ingest seams; downstream layers accept encoded batches"
    )

    def applies_to(self, mpath: str) -> bool:
        return mpath.startswith("repro/") and mpath not in INGEST_SEAMS

    def check(self, tree: ast.Module, path: str) -> "list[Violation]":
        findings: list[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = terminal_name(node.func)
            if name == "encode_batch_codes":
                findings.append(
                    self.violation(
                        node,
                        path,
                        "re-encodes raw sequences outside the ingest seams; "
                        "thread the ingest-time EncodedPairBatch through "
                        "instead (or use dataset.encoded())",
                    )
                )
            elif name in ("EncodedPairBatch", "EncodedBatch"):
                # `EncodedPairBatch.from_lists(...)` is the blessed ingest
                # API; a direct constructor call is the assembly we confine.
                findings.append(
                    self.violation(
                        node,
                        path,
                        f"constructs {name}(...) outside the ingest seams; "
                        "pass the existing encoded batch (views/selects are "
                        "free) or ingest via EncodedPairBatch.from_lists",
                    )
                )
        return findings
