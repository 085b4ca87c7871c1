"""Tests for sequence objects, FASTA/FASTQ IO and the reference genome container."""

import numpy as np
import pytest

from repro.genomics import fastq

from repro.genomics import (
    Read,
    ReferenceGenome,
    Sequence,
    SequencePair,
    encode_batch_codes,
    encode_codes,
    read_fasta,
    read_fastq,
    write_fasta,
    write_fastq,
)


class TestSequenceObjects:
    def test_sequence_upper_cases(self):
        seq = Sequence(name="s", bases="acgt")
        assert seq.bases == "ACGT"
        assert len(seq) == 4
        assert seq[1] == "C"

    def test_sequence_has_unknown(self):
        assert Sequence("s", "ACNGT").has_unknown
        assert not Sequence("s", "ACGT").has_unknown

    def test_sequence_reverse_complement(self):
        assert Sequence("s", "AACG").reverse_complement().bases == "CGTT"

    def test_subsequence(self):
        sub = Sequence("s", "ACGTACGT").subsequence(2, 6)
        assert sub.bases == "GTAC"

    def test_read_quality_length_mismatch(self):
        with pytest.raises(ValueError):
            Read(name="r", bases="ACGT", quality="II")

    def test_read_defaults(self):
        read = Read(name="r", bases="ACGT")
        assert read.true_position == -1
        assert read.quality == ""

    def test_pair_requires_uppercase_normalisation(self):
        pair = SequencePair(read="acgt", reference_segment="tgca")
        assert pair.read == "ACGT"
        assert pair.reference_segment == "TGCA"
        assert len(pair) == 4

    def test_pair_undefined(self):
        assert SequencePair(read="ACNT", reference_segment="ACGT").is_undefined
        assert SequencePair(read="ACTT", reference_segment="ANGT").is_undefined
        assert not SequencePair(read="ACTT", reference_segment="ACGT").is_undefined


class TestFastaFastq:
    def test_fasta_roundtrip(self, tmp_path):
        records = [Sequence("chr1", "ACGT" * 30), Sequence("chr2", "TTTTGGGG")]
        path = tmp_path / "ref.fa"
        write_fasta(path, records, line_width=17)
        back = read_fasta(path)
        assert [r.name for r in back] == ["chr1", "chr2"]
        assert [r.bases for r in back] == [r.bases for r in records]

    def test_fasta_gzip_roundtrip(self, tmp_path):
        path = tmp_path / "ref.fa.gz"
        write_fasta(path, [Sequence("c", "ACGTACGTAC")])
        assert read_fasta(path)[0].bases == "ACGTACGTAC"

    def test_fasta_header_names_stop_at_whitespace(self, tmp_path):
        path = tmp_path / "x.fa"
        path.write_text(">chr1 extra description\nACGT\nACGT\n")
        record = read_fasta(path)[0]
        assert record.name == "chr1"
        assert record.bases == "ACGTACGT"

    def test_fasta_without_header_raises(self, tmp_path):
        path = tmp_path / "bad.fa"
        path.write_text("ACGT\n")
        with pytest.raises(ValueError):
            read_fasta(path)

    def test_fastq_roundtrip(self, tmp_path):
        reads = [Read(name="r1", bases="ACGT", quality="IIII"), Read(name="r2", bases="GGTT")]
        path = tmp_path / "reads.fq"
        write_fastq(path, reads)
        back = read_fastq(path)
        assert [r.name for r in back] == ["r1", "r2"]
        assert back[0].quality == "IIII"
        assert back[1].quality == "IIII"  # default constant quality

    def test_fastq_malformed_raises(self, tmp_path):
        path = tmp_path / "bad.fq"
        path.write_text("@r1\nACGT\nIIII\nIIII\n")
        with pytest.raises(ValueError):
            read_fastq(path)

    def test_fastq_truncated_two_line_tail_names_file_and_record(self, tmp_path):
        """A file ending header+sequence (no '+'/quality) is a truncation error."""
        path = tmp_path / "truncated.fq"
        path.write_text("@r1\nACGT\n+\nIIII\n@r2\nACGT\n")
        with pytest.raises(ValueError, match=r"truncated\.fq.*record 2.*truncated"):
            read_fastq(path)

    def test_fastq_truncated_header_only_tail(self, tmp_path):
        path = tmp_path / "tail.fq"
        path.write_text("@r1\nACGT\n+\nIIII\n@r2\n")
        with pytest.raises(ValueError, match=r"tail\.fq.*record 2"):
            read_fastq(path)

    def test_fastq_bad_header_names_file_and_record(self, tmp_path):
        path = tmp_path / "header.fq"
        path.write_text("@r1\nACGT\n+\nIIII\nr2\nACGT\n+\nIIII\n")
        with pytest.raises(ValueError, match=r"header\.fq.*record 2.*'@'"):
            read_fastq(path)

    def test_fastq_quality_mismatch_names_file_and_record(self, tmp_path):
        path = tmp_path / "qual.fq"
        path.write_text("@r1\nACGT\n+\nII\n")
        with pytest.raises(ValueError, match=r"qual\.fq.*record 1.*quality length 2"):
            read_fastq(path)

    def test_fastq_nameless_header_raises(self, tmp_path):
        path = tmp_path / "noname.fq"
        path.write_text("@\nACGT\n+\nIIII\n")
        with pytest.raises(ValueError, match=r"noname\.fq.*record 1.*no read name"):
            read_fastq(path)

    def test_fasta_headerless_names_file_and_line(self, tmp_path):
        path = tmp_path / "headerless.fa"
        path.write_text("ACGTACGT\nACGT\n")
        with pytest.raises(ValueError, match=r"headerless\.fa.*line 1.*'ACGTACGT'"):
            read_fasta(path)

    def test_fasta_nameless_header_names_record(self, tmp_path):
        path = tmp_path / "noname.fa"
        path.write_text(">\nACGT\n")
        with pytest.raises(ValueError, match=r"noname\.fa.*record 1.*no sequence name"):
            read_fasta(path)


class TestReferenceGenome:
    def test_length_and_indexing(self):
        ref = ReferenceGenome("chr", "acgtacgt")
        assert len(ref) == 8
        assert ref[0:4] == "ACGT"

    def test_n_positions(self):
        ref = ReferenceGenome("chr", "ACGTNNACGTN")
        assert ref.n_positions.tolist() == [4, 5, 10]

    def test_segment_has_n(self):
        ref = ReferenceGenome("chr", "ACGTNNACGT")
        assert ref.segment_has_n(2, 4)
        assert not ref.segment_has_n(6, 4)
        assert not ReferenceGenome("chr", "ACGT").segment_has_n(0, 4)

    def test_segment_extraction(self):
        ref = ReferenceGenome("chr", "ACGTACGTAC")
        assert ref.segment(2, 4) == "GTAC"

    def test_segment_clamped_with_n_padding(self):
        ref = ReferenceGenome("chr", "ACGTACGTAC")
        assert ref.segment(-2, 5) == "NNACG"
        assert ref.segment(8, 5) == "ACNNN"
        assert ref.segment(-12, 5) == ref.segment(12, 5) == "NNNNN"

    def test_segment_codes_batch(self):
        ref = ReferenceGenome("chr", "ACGTACGTAC")
        codes, undefined = ref.segment_codes(np.array([0, 2]), 4)
        assert codes.tolist() == [[0, 1, 2, 3], [2, 3, 0, 1]]
        assert not undefined.any()

    def test_from_sequence_and_concatenate(self):
        a = Sequence("a", "ACGT")
        b = Sequence("b", "GGGG")
        combined = ReferenceGenome.concatenate([a, b], spacer_n=2)
        assert combined.bases == "ACGTNNGGGG"
        assert combined.name == "a+b"
        assert ReferenceGenome.from_sequence(a).bases == "ACGT"

    def test_codes_and_undefined_positions_are_cached(self):
        ref = ReferenceGenome("chr", "ACGTnRacgt")
        assert ref.codes.tolist() == encode_codes("ACGTNRACGT").tolist()
        assert ref.undefined_positions.tolist() == [4, 5]
        assert ref.n_positions.tolist() == [4]

    @pytest.mark.parametrize(
        "bases",
        [
            "ACGTACGTACGTACGTACGTAGGCTTACAGATTAC",
            "NNNACGTACGTNNNNACGTRYACGTACGKACGTNN",
            "ACGTAC",  # shorter than the segments
        ],
    )
    @pytest.mark.parametrize("length", [1, 8, 12])
    def test_segment_codes_equal_encoded_segment_strings(self, bases, length):
        ref = ReferenceGenome("chr", bases)
        # Every start a seed can propose, and then some: the segment may run
        # off either end, or lie wholly before the first or past the last base.
        starts = np.arange(-2 * length, len(bases) + length + 1)
        segments = [ref.segment(int(start), length) for start in starts]
        assert {len(segment) for segment in segments} == {length}
        codes, undefined = ref.segment_codes(starts, length)
        expected_codes, expected_undefined = encode_batch_codes(segments)
        assert codes.dtype == np.uint8
        assert np.array_equal(codes, expected_codes)
        assert np.array_equal(undefined, expected_undefined)

    def test_segment_codes_of_a_multi_contig_reference(self):
        contigs = [Sequence("a", "ACGTACGTTG"), Sequence("b", "ggccaattRa"), Sequence("c", "TTTT")]
        ref = ReferenceGenome.concatenate(contigs, spacer_n=3)
        starts = np.array([-3, 0, 5, 8, 10, 12, 13, 20, 26, 28, 30])
        codes, undefined = ref.segment_codes(starts, 6)
        expected = encode_batch_codes([ref.segment(int(start), 6) for start in starts])
        assert np.array_equal(codes, expected[0])
        assert np.array_equal(undefined, expected[1])


def record_by_record(path):
    """The FASTQ reader as it read one record at a time: ``(name, bases,
    quality)`` tuples, then the error that stopped it (or ``None``)."""
    import gzip

    records = []
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rb") as handle:
        record = 0
        while True:
            header = handle.readline()
            if not header:
                return records, None
            record += 1
            header = header.rstrip(b"\r\n")
            if not header.startswith(b"@"):
                return records, f"{path}: FASTQ record {record}: header does not start with '@': {header.decode('ascii', 'replace')!r}"
            bases_line, plus_line, quality_line = (handle.readline() for _ in range(3))
            fields = header[1:].split()
            name = fields[0].decode("ascii", "replace") if fields else "?"
            if not bases_line or not plus_line or not quality_line:
                return records, (
                    f"{path}: FASTQ record {record} ({name}) is truncated: expected 4 lines "
                    f"(header/sequence/'+'/quality), file ended early"
                )
            if not fields:
                return records, f"{path}: FASTQ record {record}: header has no read name"
            bases, plus, quality = (line.rstrip(b"\r\n") for line in (bases_line, plus_line, quality_line))
            if not plus.startswith(b"+"):
                return records, f"{path}: FASTQ record {record}: missing '+' separator line, found {plus.decode('ascii', 'replace')!r}"
            if len(quality) != len(bases):
                return records, (
                    f"{path}: FASTQ record {record}: quality length {len(quality)} "
                    f"does not match sequence length {len(bases)}"
                )
            records.append((name, bases.decode("ascii"), quality.decode("ascii")))


def fastq_text(n, bad=None, defect="plus", newline="\n", final_newline=True):
    """``n`` records; record ``bad`` (1-based) carries ``defect``."""
    lines = []
    for number in range(1, n + 1):
        header, bases, plus, quality = f"@r{number} extra", "ACGTN"[number % 5] * 7 + "acgt", "+", "I" * 11
        if number == bad:
            if defect == "plus":
                plus = "-"
            elif defect == "header":
                header = f"r{number}"
            elif defect == "name":
                header = "@  "
            elif defect == "quality":
                quality = "I" * 10
            elif defect == "blank":
                header = ""
        lines += [header, bases, plus, quality]
    text = newline.join(lines)
    return text + newline if final_newline else text


class TestFastqBlockParser:
    """The block parser reads what the record-by-record reader read, and
    stops with the same message after the same records."""

    @staticmethod
    def check(path, monkeypatch, records=fastq.FASTQ_BLOCK_RECORDS):
        monkeypatch.setattr(fastq, "FASTQ_BLOCK_RECORDS", records)
        reads = []
        try:
            for read in fastq.iter_fastq(path):
                reads.append((read.name, read.bases, read.quality))
            message = None
        except ValueError as exc:
            message = str(exc)
        expected, expected_message = record_by_record(path)
        assert reads == [(name, bases.upper(), quality) for name, bases, quality in expected]
        assert message == expected_message
        return reads

    @pytest.mark.parametrize("bad", [1, 1024, 1025])
    @pytest.mark.parametrize("defect", ["plus", "header", "name", "quality", "blank"])
    def test_bad_record_at_block_edges(self, tmp_path, monkeypatch, bad, defect):
        path = tmp_path / "reads.fq"
        path.write_text(fastq_text(1030, bad, defect))
        assert len(self.check(path, monkeypatch)) == bad - 1

    @pytest.mark.parametrize("tail", ["@r9 x\nACGT\n", "@r9\n", "@r9\nACGT\n+\n", "\n", "r9\n"])
    def test_truncated_tails(self, tmp_path, monkeypatch, tail):
        path = tmp_path / "tail.fq"
        path.write_text(fastq_text(8) + tail)
        assert len(self.check(path, monkeypatch, records=3)) == 8

    @pytest.mark.parametrize("final_newline", [True, False])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_crlf_and_missing_final_newline(self, tmp_path, monkeypatch, newline, final_newline):
        path = tmp_path / "reads.fq"
        path.write_bytes(fastq_text(9, newline=newline, final_newline=final_newline).encode())
        reads = self.check(path, monkeypatch, records=4)
        assert len(reads) == 9 and reads[0][1:] == ("CCCCCCCACGT", "I" * 11)

    def test_gzip(self, tmp_path, monkeypatch):
        import gzip

        path = tmp_path / "reads.fq.gz"
        with gzip.open(path, "wt") as handle:
            handle.write(fastq_text(40, bad=33, defect="quality"))
        assert len(self.check(path, monkeypatch, records=16)) == 32

    def test_non_ascii_bases_raise_the_decode_error_after_the_reads_before(self, tmp_path):
        path = tmp_path / "reads.fq"
        path.write_bytes(fastq_text(3).encode() + "@r4\nACéT\n+\nIIIII\n".encode("utf-8"))
        names = []
        with pytest.raises(UnicodeDecodeError):
            for read in fastq.iter_fastq(path):
                names.append(read.name)
        assert names == ["r1", "r2", "r3"]
