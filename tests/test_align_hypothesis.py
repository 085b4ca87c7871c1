"""Property-based differential tests: batched banded DP vs the scalar oracle.

:func:`repro.align.banded_edit_distances` must return, row for row, what the
per-pair :func:`repro.align.banded_edit_distance` returns on the same bases;
:meth:`repro.align.Verifier.verify_batch` must return what per-pair
:meth:`~repro.align.Verifier.verify` returns on the upper-cased strings,
also for undefined rows (``N``, lower-case ``n``, IUPAC codes and the bytes
0x00-0x03, which keep their identity in the batch codes), and across several
row blocks.  Hypothesis
drives random substitutions, insertions and deletions, thresholds 0..10,
read lengths 100/150/250 and reads shorter than the band (``2e + 1``); every
short two-letter pair is checked exhaustively.  Runs are derandomised (fixed
example corpus) so the tier-1 suite stays deterministic.
"""

from __future__ import annotations

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import Verifier, banded_edit_distance, banded_edit_distances
from repro.align import verification
from repro.genomics.encoding import EncodedPairBatch
from helpers import mutated_pair

#: Deterministic, time-bounded profile for the tier-1 suite (as in
#: ``test_filters_hypothesis.py``): fixed corpus, no per-example deadline.
COMMON = dict(deadline=None, derandomize=True)

BASES = "ACGT"
MAX_ROWS = 6


@st.composite
def edited_pair(draw, length: int, band: int) -> tuple[str, str]:
    """A segment and a read made from it by up to ``band + 3`` random edits.

    The read is cut or padded back to ``length`` bases, as a read taken at a
    candidate location is; some reads are unrelated to their segment.
    """
    segment = draw(st.text(BASES, min_size=length, max_size=length))
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(BASES, min_size=length, max_size=length)), segment
    read = list(segment)
    for _ in range(draw(st.integers(0, band + 3))):
        op = draw(st.sampled_from("SID"))
        if op != "I" and not read:
            continue
        at = draw(st.integers(0, max(len(read) - 1, 0)))
        if op == "S":
            read[at] = draw(st.sampled_from(BASES))
        elif op == "I":
            read.insert(at, draw(st.sampled_from(BASES)))
        else:
            del read[at]
    tail = draw(st.text(BASES, min_size=length, max_size=length))
    return ("".join(read) + tail)[:length], segment


@st.composite
def pair_batches(draw) -> tuple[int, list[str], list[str]]:
    """``(band, reads, segments)``: equal-length pairs, possibly none."""
    band = draw(st.integers(0, 10))
    length = draw(st.one_of(st.sampled_from([100, 150, 250]), st.integers(0, 2 * band)))
    n_rows = draw(st.integers(0, MAX_ROWS))
    pairs = [draw(edited_pair(length, band)) for _ in range(n_rows)]
    return band, [p[0] for p in pairs], [p[1] for p in pairs]


@given(pair_batches())
@settings(max_examples=100, **COMMON)
def test_batch_equals_scalar_oracle(batch):
    band, reads, segments = batch
    pairs = EncodedPairBatch.from_lists(reads, segments)
    distances = banded_edit_distances(pairs.read_codes, pairs.ref_codes, band)
    assert distances.dtype == np.int32
    assert distances.tolist() == [
        banded_edit_distance(read, segment, band) for read, segment in zip(reads, segments)
    ]


@pytest.mark.parametrize("band", [0, 1, 2, 3])
def test_every_short_pair(band):
    """Exhaustive over two-letter pairs of up to 5 bases, where the band's
    edges (the matrix border, the cap) decide many of the answers."""
    for length in range(6):
        words = ["".join(w) for w in itertools.product("AC", repeat=length)]
        reads = [a for a in words for _ in words]
        segments = words * len(words)
        pairs = EncodedPairBatch.from_lists(reads, segments)
        distances = banded_edit_distances(pairs.read_codes, pairs.ref_codes, band)
        assert distances.tolist() == [
            banded_edit_distance(read, segment, band) for read, segment in zip(reads, segments)
        ]


def test_empty_batch():
    empty = np.zeros((0, 100), dtype=np.uint8)
    distances = banded_edit_distances(empty, empty, 5)
    assert distances.shape == (0,) and distances.dtype == np.int32


#: Bytes other than A/C/G/T that pairs may hold: ``N`` in both cases, IUPAC
#: codes, and the bytes 0x00-0x03, whose codes must not alias A/C/G/T.
UNDEFINED_BASES = "NnRYKMSWn\x00\x01\x02\x03"


@st.composite
def verify_batches(draw) -> tuple[int, list[str], list[str], list[int]]:
    """Pairs with non-ACGT bytes (some opposite each other, some equal up to
    case) and lower-case rows, plus the rows to verify, in any order."""
    band, reads, segments = draw(pair_batches().filter(lambda b: len(b[1]) > 0))
    length = len(reads[0])
    for index in range(len(reads)):
        read, segment = list(reads[index]), list(segments[index])
        for _ in range(draw(st.integers(0, 2)) if length else 0):
            at = draw(st.integers(0, length - 1))
            side = draw(st.sampled_from(["read", "segment", "both"]))
            base = draw(st.sampled_from(UNDEFINED_BASES))
            if side != "segment":
                read[at] = base
            if side != "read":
                segment[at] = draw(st.sampled_from([base, base.swapcase()]))
        reads[index], segments[index] = "".join(read), "".join(segment)
        if draw(st.integers(0, 7)) == 0:
            reads[index] = reads[index].lower()
    rows = draw(st.lists(st.integers(0, len(reads) - 1), unique=True))
    return band, reads, segments, rows


@given(verify_batches())
@settings(max_examples=100, **COMMON)
def test_verify_batch_equals_per_pair_verify(batch):
    band, reads, segments, rows = batch
    pairs = EncodedPairBatch.from_lists(reads, segments)
    verifier = Verifier(band)
    with mock.patch.object(verification, "BLOCK_PAIRS", 2):
        distances = verifier.verify_batch(pairs, np.array(rows, dtype=np.intp))
    assert verifier.pairs_verified == len(rows)
    oracle = Verifier(band)
    assert distances.tolist() == [
        oracle.verify(reads[row].upper(), segments[row].upper()).edit_distance for row in rows
    ]


def test_verify_batch_runs_one_pass_per_block(monkeypatch, rng):
    pairs = [mutated_pair(100, rng.randrange(0, 8), rng) for _ in range(11)]
    reads = [p[0] for p in pairs]
    segments = [p[1] for p in pairs]
    reads[4] = "N" + reads[4][1:]
    passes = []

    def counting(read_codes, ref_codes, band):
        passes.append(len(read_codes))
        return banded_edit_distances(read_codes, ref_codes, band)

    monkeypatch.setattr(verification, "BLOCK_PAIRS", 4)
    monkeypatch.setattr(verification, "banded_edit_distances", counting)
    verifier = Verifier(5)
    distances = verifier.verify_batch(EncodedPairBatch.from_lists(reads, segments), np.arange(11))
    assert passes == [4, 4, 3]  # the N row is verified with the others
    assert verifier.pairs_verified == 11
    assert distances.tolist() == [
        banded_edit_distance(read, segment, 5) for read, segment in zip(reads, segments)
    ]
