"""Property-based differential tests: the array k-mer index and batched seeder vs a dict oracle.

:class:`repro.mapper.KmerIndex` must answer ``lookup``, ``len`` and
``occurrence_counts`` (as a multiset) exactly as a per-position dict of the
reference's A/C/G/T k-mers does, and :meth:`repro.mapper.Seeder.candidates_batch`
must return, read for read (its flat ``(owner, locations)`` grouped by
owner), what a per-read, per-seed loop over that dict returns,
``max_candidates`` cap included.  Hypothesis drives references with
``N`` runs and repeats, reads with ``N``, lower case and lengths below k,
caps 1/3/2048, k in 1..16 and e in 0..6.  Runs are derandomised (fixed
example corpus) so the tier-1 suite stays deterministic.

Also pinned here: :func:`repro.runtime.seeded_pairs` reads its input a block
at a time yet stays lazy around a malformed FASTQ record or a read of
another length, and k-mers holding IUPAC codes are neither indexed nor
matched.
"""

from __future__ import annotations

import re
from collections import defaultdict
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.align import Verifier
from repro.api import Session, Workload
from repro.genomics import ReferenceGenome, decode_pairs, encode_codes
from repro.mapper import KmerIndex, Seeder
from repro.runtime import load_reference, seeded_pairs
from repro.runtime.sources import SEED_BLOCK_READS

COMMON = dict(deadline=None, derandomize=True)
CAPS = (1, 3, 2048)


# --------------------------------------------------------------------------- #
# The oracle: a dict index and the per-read, per-seed seeding loop
# --------------------------------------------------------------------------- #
def dict_index(reference: str, k: int) -> dict[str, list[int]]:
    """Every A/C/G/T-only k-mer of ``reference`` -> its start positions, ascending."""
    index: dict[str, list[int]] = defaultdict(list)
    for position in range(len(reference) - k + 1):
        kmer = reference[position : position + k]
        if set(kmer) <= set("ACGT"):
            index[kmer].append(position)
    return index


def loop_candidates(index: dict[str, list[int]], k: int, read: str, e: int,
                    cap: int) -> list[int]:
    """``e + 1`` spread seeds in order, stop at ``cap`` hits, then sorted unique."""
    if len(read) < k:
        return []
    n_seeds = min(e + 1, len(read) // k)
    offsets = [0] if n_seeds == 1 else np.linspace(0, len(read) - k, n_seeds).astype(int)
    hits: list[int] = []
    for offset in offsets:
        for position in index.get(read[offset : offset + k].upper(), []):
            hits.append(position - int(offset))
            if len(hits) >= cap:
                return sorted(set(hits))
    return sorted(set(hits))


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
@st.composite
def references(draw) -> str:
    """Random A/C/G/T stretches, ``N`` runs and copies of earlier stretches."""
    genome = ""
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["random", "n_run", "repeat"]))
        if kind == "n_run":
            genome += "N" * draw(st.integers(1, 12))
        elif kind == "repeat" and genome:
            start = draw(st.integers(0, len(genome) - 1))
            genome += genome[start : start + draw(st.integers(1, 60))]
        else:
            genome += draw(st.text("ACGT", min_size=1, max_size=80))
    return genome


@st.composite
def reads_from(draw, reference: str) -> list[str]:
    """Reads cut from ``reference`` or random, with ``N``s, lower case and short lengths."""
    reads = []
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.integers(0, 4)) == 0:
            read = list(draw(st.text("ACGTN", max_size=60)))
        else:
            start = draw(st.integers(0, len(reference) - 1))
            read = list(reference[start : start + draw(st.integers(0, 60))])
        for _ in range(draw(st.integers(0, 3)) if read else 0):
            read[draw(st.integers(0, len(read) - 1))] = draw(st.sampled_from("ACGTN"))
        cut = draw(st.integers(0, len(read)))
        reads.append("".join(read[:cut]) + "".join(read[cut:]).lower())
    return reads


# --------------------------------------------------------------------------- #
# Index and seeder against the oracle
# --------------------------------------------------------------------------- #
@settings(max_examples=150, **COMMON)
@given(genome=references(), k=st.integers(1, 16))
def test_index_matches_dict(genome, k):
    assume(len(genome) >= k)
    index = KmerIndex(ReferenceGenome("r", genome), k)
    oracle = dict_index(genome, k)
    assert len(index) == len(oracle)
    assert sorted(index.occurrence_counts().tolist()) == sorted(map(len, oracle.values()))
    for kmer, positions in oracle.items():
        assert index.lookup(kmer).tolist() == positions
        assert index.lookup(kmer.lower()).tolist() == positions
        assert kmer in index
    for position in range(len(genome) - k + 1):
        kmer = genome[position : position + k]
        assert index.lookup(kmer).tolist() == oracle.get(kmer, [])


@settings(max_examples=150, **COMMON)
@given(data=st.data(), genome=references(), k=st.integers(1, 16), e=st.integers(0, 6),
       cap=st.sampled_from(CAPS))
def test_candidates_batch_matches_loop(data, genome, k, e, cap):
    assume(len(genome) >= k)
    reads = data.draw(reads_from(genome))
    seeder = Seeder(KmerIndex(ReferenceGenome("r", genome), k), e, cap)
    oracle = dict_index(genome, k)
    lengths = np.array([len(read) for read in reads])
    owner, locations = seeder.candidates_batch(encode_codes("".join(reads)), lengths)
    assert owner.dtype == locations.dtype == np.int64
    assert np.all(np.diff(owner) >= 0)
    for row, read in enumerate(reads):
        candidates = locations[owner == row].tolist()
        assert candidates == loop_candidates(oracle, k, read, e, cap), read
    assert seeder.candidates(reads[0]).tolist() == locations[owner == 0].tolist()


@settings(max_examples=150, **COMMON)
@given(lengths=st.lists(st.integers(0, 400), max_size=20), k=st.integers(1, 32),
       e=st.integers(0, 10))
def test_seed_offsets_match_linspace(lengths, k, e):
    seeder = Seeder(KmerIndex(ReferenceGenome("r", "ACGT" * 8), k), e)
    row, offsets = seeder.seed_offsets(np.array(lengths, dtype=np.int64))
    expected_row, expected = [], []
    for read_row, length in enumerate(lengths):
        n_seeds = min(e + 1, length // k)
        placed = [0] if n_seeds == 1 else np.linspace(0, length - k, n_seeds).astype(int)
        expected_row += [read_row] * n_seeds
        expected += list(placed[:n_seeds])
    assert row.tolist() == expected_row
    assert offsets.tolist() == [int(offset) for offset in expected]


# --------------------------------------------------------------------------- #
# IUPAC codes: the one behaviour the array index changed
# --------------------------------------------------------------------------- #
def test_iupac_kmers_are_neither_indexed_nor_matched():
    genome = "ACGTACCGTTRGATCCAGTTAGC"
    index = KmerIndex(ReferenceGenome("r", genome), 4)
    assert "TTRG" not in index and "RGAT" not in index
    assert index.lookup("TTRG").size == 0
    assert len(index) == len(dict_index(genome, 4))
    seeder = Seeder(index, error_threshold=1)
    # Seeds "TTRG" (offset 0) and "ATCC" (offset 4): only the second hits.
    assert seeder.candidates("TTRGATCC").tolist() == [genome.index("ATCC") - 4]
    assert seeder.candidates("TTRG").size == 0


# --------------------------------------------------------------------------- #
# seeded_pairs: block reads, lazy around a malformed record
# --------------------------------------------------------------------------- #
GOLDEN_REFERENCE = Path(__file__).resolve().parent / "data" / "golden_reference.fasta"
ERROR_THRESHOLD = 3
SEEDING_K = 12


@pytest.fixture(scope="module")
def golden_reference() -> ReferenceGenome:
    return load_reference(GOLDEN_REFERENCE)


def sampled_reads(reference: ReferenceGenome, n: int, length: int = 48) -> list[str]:
    """``n`` N-free reads cut from ``reference`` at spread-out positions."""
    reads = []
    position = 0
    while len(reads) < n:
        position = (position + 37) % (len(reference) - length)
        read = reference.bases[position : position + length]
        if "N" not in read:
            reads.append(read)
    return reads


def write_fastq(path, reads: list[str], bad_record: int | None = None) -> None:
    """Write ``reads``; record ``bad_record`` (1-based) loses its '+' line."""
    lines = []
    for number, read in enumerate(reads, start=1):
        plus = "" if number == bad_record else "+\n"
        lines.append(f"@r{number}\n{read}\n{plus}{'I' * len(read)}\n")
    path.write_text("".join(lines))


@pytest.mark.parametrize("bad_record", [501, SEED_BLOCK_READS + 3])
def test_seeded_pairs_stays_lazy_around_a_bad_record(tmp_path, golden_reference, bad_record):
    reads = sampled_reads(golden_reference, bad_record + 20)
    path = tmp_path / "reads.fastq"
    write_fastq(path, reads, bad_record)

    def stream(source):
        return decode_pairs(seeded_pairs(source, golden_reference, ERROR_THRESHOLD, k=SEEDING_K))

    before = list(stream(reads[: bad_record - 1]))
    assert len(before) >= bad_record - 1  # so 100 pairs end before the bad record

    assert list(islice(stream(path), 100)) == before[:100]
    got = []
    error = re.escape(f"{path}: FASTQ record {bad_record}: missing '+'")
    with pytest.raises(ValueError, match=error):
        for pair in stream(path):
            got.append(pair)
    assert got == before


@pytest.mark.parametrize("mixed_read", [300, SEED_BLOCK_READS + 40])
def test_mixed_read_lengths_end_the_stream_after_the_reads_before(
    tmp_path, golden_reference, mixed_read
):
    reads = sampled_reads(golden_reference, mixed_read + 20)
    reads[mixed_read - 1] = reads[mixed_read - 1][:40]
    path = tmp_path / "reads.fastq"
    write_fastq(path, reads)

    def stream(source):
        return decode_pairs(seeded_pairs(source, golden_reference, ERROR_THRESHOLD, k=SEEDING_K))

    before = list(stream(reads[: mixed_read - 1]))
    got = []
    message = re.escape(
        f"workload.input.path: {path}: read {mixed_read} has 40 bases, "
        f"but the reads before it have 48"
    )
    with pytest.raises(ValueError, match=message):
        for pair in stream(path):
            got.append(pair)
    assert got == before

    # A probe or a shard that ends before the mixed read still succeeds.
    shard = {"index": 0, "n_shards": 2, "start": 0, "stop": 200, "total": 5000}
    with Session() as session:
        assert list(decode_pairs([session.probe_pairs(reads_workload(path), 200)])) == before[:200]
        for prefetch in (False, True):
            result = session.run(reads_workload(path, prefetch=prefetch, shard=shard))
            assert result.summary["n_pairs"] == 200
        with pytest.raises(ValueError, match=message):
            session.run(reads_workload(path, prefetch=True))


def test_seeded_pairs_skips_reads_shorter_than_k(tmp_path, golden_reference):
    reads = sampled_reads(golden_reference, 6)
    path = tmp_path / "reads.fastq"
    write_fastq(path, reads[:3] + ["ACGTACG"] + reads[3:])
    pairs = list(decode_pairs(seeded_pairs(path, golden_reference, ERROR_THRESHOLD, k=SEEDING_K)))
    assert pairs == list(
        decode_pairs(seeded_pairs(reads, golden_reference, ERROR_THRESHOLD, k=SEEDING_K))
    )
    assert pairs


def reads_workload(path, output=None, **execution) -> Workload:
    return Workload.from_dict({
        "input": {"kind": "reads", "path": str(path), "reference": str(GOLDEN_REFERENCE),
                  "seeding_k": SEEDING_K},
        "filter": {"filters": ["gatekeeper-gpu"], "error_threshold": ERROR_THRESHOLD},
        "execution": {"mode": "streaming", "chunk_size": 64, **execution},
        "output": output or {},
    })


def test_probe_and_shard_that_end_before_a_bad_record_succeed(tmp_path, golden_reference):
    reads = sampled_reads(golden_reference, 700)
    path = tmp_path / "reads.fastq"
    shard = {"index": 0, "n_shards": 2, "start": 0, "stop": 300, "total": 5000}
    workloads = [reads_workload(path, prefetch=prefetch, shard=shard)
                 for prefetch in (False, True)]

    def outputs(session: Session) -> list:
        probe = session.probe_pairs(reads_workload(path), 300)
        return [list(decode_pairs([probe]))] + [
            session.run(workload).to_json() for workload in workloads]

    with Session() as session:
        write_fastq(path, reads)
        expected = outputs(session)
        write_fastq(path, reads, bad_record=650)
        assert outputs(session) == expected
        with pytest.raises(ValueError, match="FASTQ record 650"):
            session.run(reads_workload(path))


def test_streamed_n_bearing_run_verifies_like_the_string_dp(tmp_path, golden_reference):
    """Undefined pairs are verified on their codes exactly as the scalar DP
    scores their upper-cased strings."""
    island = int(golden_reference.n_positions[0])
    reads = sampled_reads(golden_reference, 300) + [
        golden_reference.bases[start : start + 48] for start in range(island - 40, island + 8, 3)
    ]
    reads = [read[:9] + "N" + read[10:] if i % 7 == 0 else read for i, read in enumerate(reads)]
    reads = [read[:20] + read[20:].lower() if i % 5 == 0 else read for i, read in enumerate(reads)]
    path = tmp_path / "reads.fastq"
    write_fastq(path, reads)
    result = Session().run(
        reads_workload(path, output={"collect_decisions": True}, verify=True, prefetch=True)
    )
    pairs = list(decode_pairs(seeded_pairs(path, golden_reference, ERROR_THRESHOLD, k=SEEDING_K)))
    accepted = result.raw.accepted
    undefined = result.raw.undefined
    assert len(pairs) == accepted.size == result.summary["n_pairs"]
    assert undefined[accepted].sum() > 10  # undefined survivors are verified too
    verifier = Verifier(ERROR_THRESHOLD)
    expected = sum(
        verifier.verify(read, segment).accepted
        for (read, segment), kept in zip(pairs, accepted.tolist())
        if kept
    )
    assert result.summary["verified_accepts"] == expected
