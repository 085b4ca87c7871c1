"""Tests for the DNA alphabet and 2-bit encoding substrate."""

import numpy as np
import pytest

from repro.genomics import (
    BASE_TO_CODE,
    EncodedBatch,
    EncodedPairBatch,
    UNKNOWN_BASE,
    base_to_code,
    code_to_base,
    complement,
    contains_unknown,
    encode_batch,
    encode_batch_codes,
    encode_codes,
    encode_to_codes,
    encode_to_int,
    decode_from_codes,
    decode_from_int,
    decode_pairs,
    is_valid_sequence,
    pack_codes_to_words,
    reverse_complement,
    unpack_words_to_codes,
    words_per_read,
)
from repro.genomics.alphabet import encode_lookup_table


class TestAlphabet:
    def test_base_codes_match_paper(self):
        # A=00, C=01, G=10, T=11 (Section 2.1).
        assert BASE_TO_CODE == {"A": 0, "C": 1, "G": 2, "T": 3}

    def test_base_to_code_case_insensitive(self):
        assert base_to_code("a") == 0
        assert base_to_code("t") == 3

    def test_code_to_base_roundtrip(self):
        for base, code in BASE_TO_CODE.items():
            assert code_to_base(code) == base

    def test_invalid_base_raises(self):
        with pytest.raises(KeyError):
            base_to_code("N")

    def test_complement(self):
        assert complement("A") == "T"
        assert complement("g") == "C"
        assert complement("N") == "N"

    def test_reverse_complement(self):
        assert reverse_complement("ACGT") == "ACGT"
        assert reverse_complement("AACG") == "CGTT"
        assert reverse_complement("ANT") == "ANT"

    def test_is_valid_sequence(self):
        assert is_valid_sequence("ACGTN")
        assert not is_valid_sequence("ACGTN", allow_n=False)
        assert not is_valid_sequence("ACGU")

    def test_contains_unknown(self):
        assert contains_unknown("ACNGT")
        assert not contains_unknown("ACGT")

    def test_lookup_table_marks_invalid(self):
        table = encode_lookup_table()
        assert table[ord("A")] == 0
        assert table[ord("c")] == 1
        assert table[ord("N")] == 255
        assert table[ord("X")] == 255


class TestScalarEncoding:
    def test_words_per_read_100bp_is_seven_32bit_words(self):
        # The paper: "a 100bp read is represented as seven words".
        assert words_per_read(100, 32) == 7

    def test_words_per_read_64bit(self):
        assert words_per_read(100, 64) == 4
        assert words_per_read(32, 64) == 1
        assert words_per_read(33, 64) == 2
        assert words_per_read(0, 64) == 0

    def test_words_per_read_negative_raises(self):
        with pytest.raises(ValueError):
            words_per_read(-1)

    def test_encode_to_int_known_value(self):
        # ACGT -> 00 01 10 11 = 0b00011011 = 27
        assert encode_to_int("ACGT") == 27

    def test_int_roundtrip(self):
        seq = "ACGTTGCAACGTACGTACGTTT"
        assert decode_from_int(encode_to_int(seq), len(seq)) == seq

    def test_encode_to_codes_roundtrip(self):
        seq = "ACGTTGCA"
        codes = encode_to_codes(seq)
        assert codes.tolist() == [0, 1, 2, 3, 3, 2, 1, 0]
        assert decode_from_codes(codes) == seq

    def test_encode_to_codes_rejects_n(self):
        with pytest.raises(ValueError):
            encode_to_codes("ACGNT")


class TestWordPacking:
    def test_pack_unpack_roundtrip_64(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 4, size=(5, 100)).astype(np.uint8)
        words = pack_codes_to_words(codes, word_bits=64)
        assert words.shape == (5, 4)
        assert words.dtype == np.uint64
        back = unpack_words_to_codes(words, 100, word_bits=64)
        assert np.array_equal(back, codes)

    def test_pack_unpack_roundtrip_32(self):
        rng = np.random.default_rng(1)
        codes = rng.integers(0, 4, size=(3, 150)).astype(np.uint8)
        words = pack_codes_to_words(codes, word_bits=32)
        assert words.shape == (3, 10)
        assert words.dtype == np.uint32
        assert np.array_equal(unpack_words_to_codes(words, 150, word_bits=32), codes)

    def test_pack_single_sequence(self):
        codes = encode_to_codes("ACGT" * 8)  # exactly one 64-bit word
        words = pack_codes_to_words(codes, word_bits=64)
        assert words.shape == (1,)
        # First base (A=00) occupies the most significant bits.
        assert int(words[0]) >> 62 == 0
        assert np.array_equal(unpack_words_to_codes(words, 32), codes)

    def test_first_base_most_significant(self):
        # "T" followed by "A"s: the T code (11) must sit in the top two bits.
        codes = encode_to_codes("T" + "A" * 31)
        word = int(pack_codes_to_words(codes, word_bits=64)[0])
        assert word >> 62 == 3

    def test_invalid_word_bits(self):
        with pytest.raises(ValueError):
            pack_codes_to_words(np.zeros(4, dtype=np.uint8), word_bits=16)


class TestBatchEncoding:
    def test_encode_batch_flags_undefined(self):
        batch = encode_batch(["ACGTACGT", "ACGNACGT", "TTTTTTTT"])
        assert isinstance(batch, EncodedBatch)
        assert batch.undefined.tolist() == [False, True, False]
        assert batch.n_sequences == 3
        assert batch.length == 8

    def test_encode_batch_codes_shapes(self):
        codes, undefined = encode_batch_codes(["ACGT", "NNNN"])
        assert codes.shape == (2, 4)
        assert undefined.tolist() == [False, True]
        # Non-ACGT bytes keep their identity: N is its ASCII value.
        assert codes[1].tolist() == [ord("N")] * 4

    def test_encode_batch_requires_equal_lengths(self):
        with pytest.raises(ValueError):
            encode_batch_codes(["ACGT", "ACG"])

    def test_encode_batch_empty_raises(self):
        with pytest.raises(ValueError):
            encode_batch_codes([])

    def test_encode_batch_lowercase(self):
        codes, undefined = encode_batch_codes(["acgt"])
        assert codes[0].tolist() == [0, 1, 2, 3]
        assert not undefined[0]


class TestBatchCodesKeepNonAcgtBytes:
    """Batch codes fold case on A/C/G/T and keep every other byte distinct,
    while the packed words stay those of the 2-bit encoding."""

    def test_equal_codes_exactly_when_upper_cased_bytes_are_equal(self):
        every_byte = bytes(range(256))
        codes = encode_codes(every_byte)
        upper = every_byte.upper()
        for a in range(256):
            for b in range(256):
                assert (codes[a] == codes[b]) == (upper[a] == upper[b]), (a, b)
        acgt = {ord(base) for base in "ACGTacgt"}
        assert [int(code) <= 3 for code in codes] == [byte in acgt for byte in range(256)]

    def test_undefined_is_any_code_above_three(self):
        codes, undefined = encode_batch_codes([b"ACGT", b"ACnT", b"AC\x00T", b"RCGT"])
        assert undefined.tolist() == [False, True, True, True]
        assert undefined.tolist() == (codes > 3).any(axis=1).tolist()

    @pytest.mark.parametrize("word_bits", [32, 64])
    def test_words_equal_the_2bit_packing_with_non_acgt_read_as_zero(self, word_bits):
        rng = np.random.default_rng(3)
        alphabet = np.frombuffer(b"ACGTacgtNnRYK\x00\x01\x02\x03", dtype=np.uint8)
        raw = rng.choice(np.frombuffer(b"ACGT", dtype=np.uint8), size=(40, 70))
        holes = rng.random(raw.shape) < 0.02
        raw[holes] = rng.choice(alphabet, size=int(holes.sum()))
        sequences = [row.tobytes() for row in raw]
        batch = encode_batch(sequences, word_bits=word_bits)
        assert batch.undefined.any() and not batch.undefined.all()
        # The 2-bit encoding of the lookup table, with every other byte as 0.
        two_bit = encode_lookup_table()[raw]
        two_bit[two_bit == 255] = 0
        expected = pack_codes_to_words(two_bit, word_bits=word_bits)
        assert np.array_equal(batch.words, expected)
        assert np.array_equal(batch[5:30].words, expected[5:30])

    def test_decode_pairs_gives_upper_cased_strings(self):
        reads = ["ACGTnacg", "rrNNacgt", "\x00\x01\x02\x03ACGT"]
        segments = ["acgtacgt", "NNNNNNNN", "TTTTtttt"]
        pairs = EncodedPairBatch.from_lists(reads, segments)
        decoded = list(decode_pairs([pairs[:1], pairs[1:]]))
        assert decoded == [(r.upper(), s.upper()) for r, s in zip(reads, segments)]

    def test_concatenate_keeps_row_order_and_masks(self):
        reads = ["ACGT", "ACNT", "GGGG", "TTTT", "CCCC"]
        segments = ["ACGT", "ACGT", "GGNG", "TTTT", "CCCA"]
        pairs = EncodedPairBatch.from_lists(reads, segments)
        joined = EncodedPairBatch.concatenate([pairs[:2], pairs[2:3], pairs[3:]])
        assert np.array_equal(joined.read_codes, pairs.read_codes)
        assert np.array_equal(joined.ref_codes, pairs.ref_codes)
        assert joined.undefined.tolist() == [False, True, True, False, False]
        assert np.array_equal(joined.ref_words, pairs.ref_words)
        assert EncodedPairBatch.concatenate([pairs]) is pairs
        assert EncodedPairBatch.concatenate([]).n_pairs == 0
