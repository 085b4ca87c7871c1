"""Property-based tests (hypothesis) for the filter and encoding invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.align import dp_edit_distance, edit_distance
from repro.filters import GateKeeperGPUFilter, SneakySnakeFilter
from repro.filters.bitvector import amend_mask
from repro.genomics import (
    encode_batch_codes,
    encode_to_codes,
    pack_codes_to_words,
    unpack_words_to_codes,
)

dna = st.text(alphabet="ACGT", min_size=1, max_size=120)
dna_pairs = st.integers(min_value=20, max_value=90).flatmap(
    lambda n: st.tuples(
        st.text(alphabet="ACGT", min_size=n, max_size=n),
        st.text(alphabet="ACGT", min_size=n, max_size=n),
    )
)


@settings(max_examples=60, deadline=None)
@given(dna)
def test_encoding_word_roundtrip(sequence):
    """Packing codes into words and unpacking them is lossless."""
    codes = encode_to_codes(sequence)
    for bits in (32, 64):
        words = pack_codes_to_words(codes, word_bits=bits)
        assert np.array_equal(unpack_words_to_codes(words, len(sequence), word_bits=bits), codes)


@settings(max_examples=40, deadline=None)
@given(dna_pairs)
def test_myers_matches_dp(pair):
    """The bit-parallel edit distance equals the quadratic DP."""
    a, b = pair
    assert edit_distance(a, b) == dp_edit_distance(a, b)


@settings(max_examples=40, deadline=None)
@given(dna_pairs, st.integers(min_value=0, max_value=10))
def test_gatekeeper_gpu_never_false_rejects(pair, threshold):
    """Pairs within the threshold always pass GateKeeper-GPU (no false rejects)."""
    read, segment = pair
    distance = edit_distance(read, segment)
    result = GateKeeperGPUFilter(threshold).filter_pair(read, segment)
    if distance <= threshold:
        assert result.accepted


@settings(max_examples=30, deadline=None)
@given(dna_pairs)
def test_sneakysnake_lower_bounds_edit_distance(pair):
    """SneakySnake's obstacle count never exceeds the true edit distance."""
    read, segment = pair
    distance = edit_distance(read, segment)
    estimate = SneakySnakeFilter(len(read)).estimate_edits(read, segment)
    assert estimate <= distance


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=64))
def test_amendment_only_adds_ones(bits):
    """Amendment never clears a set bit and never touches long zero runs."""
    mask = np.asarray(bits, dtype=np.uint8)
    amended = amend_mask(mask)
    assert np.all(amended >= mask)
    # Zero runs of length >= 3 survive untouched.
    run = 0
    for j, value in enumerate(mask):
        if value == 0:
            run += 1
        else:
            run = 0
        if run >= 3:
            assert amended[j] == 0 and amended[j - 1] == 0 and amended[j - 2] == 0


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=30, max_value=80),
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=1, max_value=12),
)
def test_batch_estimate_matches_scalar(length, threshold, seed):
    """The vectorised batch estimate equals the scalar filter on random pairs."""
    rng = np.random.default_rng(seed)
    lut = np.frombuffer(b"ACGT", dtype=np.uint8)
    reads = ["".join(chr(c) for c in lut[rng.integers(0, 4, length)]) for _ in range(4)]
    refs = ["".join(chr(c) for c in lut[rng.integers(0, 4, length)]) for _ in range(4)]
    read_codes, _ = encode_batch_codes(reads)
    ref_codes, _ = encode_batch_codes(refs)
    flt = GateKeeperGPUFilter(threshold)
    estimates = flt.estimate_edits_batch(read_codes, ref_codes)
    for i in range(4):
        assert int(estimates[i]) == flt.estimate_edits(reads[i], refs[i])


@settings(max_examples=40, deadline=None)
@given(dna_pairs, st.integers(min_value=0, max_value=8))
def test_estimate_within_window_bound(pair, threshold):
    """The windowed LUT count can never exceed the number of 4-base windows."""
    read, segment = pair
    estimate = GateKeeperGPUFilter(threshold).estimate_edits(read, segment)
    assert 0 <= estimate <= -(-len(read) // 4)
