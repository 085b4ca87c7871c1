"""2-bit sequence encoding and fixed-width word packing.

GateKeeper-GPU represents an encoded read as an array of machine words: a
16-character window is packed into one 32-bit word, so a 100 bp read occupies
seven words (Section 3.3 of the paper).  This module provides

* scalar helpers that encode a sequence into a Python integer bit-vector,
* vectorised helpers that encode *batches* of equal-length sequences into
  NumPy word arrays (``uint32`` or ``uint64``), mirroring the data layout of
  the CUDA kernel, and
* the :class:`EncodedBatch` / :class:`EncodedPairBatch` value types that the
  whole filtering stack passes around so every sequence is encoded exactly
  once at ingest (the encode-once data flow).

Batch codes are one byte per base: ``A/C/G/T`` (either case) are 0-3, and
every other byte keeps its identity as a value of at least 4 (its upper-case
ASCII value; the bytes 0x00-0x03 take the values ``A/C/G/T`` leave free).
Two bases have equal codes exactly when their upper-cased bytes are equal,
so an ``N`` matches only an ``N`` and verification needs no strings.  A row
holding any code above 3 is *undefined*; its packed words are those of the
row with every such code read as 0.

The word layout places the first base of the sequence in the most significant
bits of word 0, exactly as the FPGA/CUDA implementations do, so that a logical
left shift of the whole bit-vector corresponds to shifting the read towards
lower indices (insertions) and a right shift to deletions.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .alphabet import BASE_TO_CODE, BASES, BITS_PER_BASE, CODE_TO_BASE, encode_lookup_table

__all__ = [
    "WORD_BITS_32",
    "WORD_BITS_64",
    "BASES_PER_WORD_32",
    "BASES_PER_WORD_64",
    "words_per_read",
    "encode_to_int",
    "decode_from_int",
    "encode_to_codes",
    "decode_from_codes",
    "pack_codes_to_words",
    "unpack_words_to_codes",
    "encode_batch",
    "encode_batch_codes",
    "encode_codes",
    "non_acgt_positions",
    "gather_windows",
    "decode_pairs",
    "EncodedBatch",
    "EncodedPairBatch",
]

WORD_BITS_32 = 32
WORD_BITS_64 = 64
BASES_PER_WORD_32 = WORD_BITS_32 // BITS_PER_BASE
BASES_PER_WORD_64 = WORD_BITS_64 // BITS_PER_BASE

_ASCII_CODE = encode_lookup_table()


def _byte_codes() -> np.ndarray:
    """The batch code of every byte: A/C/G/T -> 0-3, any other -> its upper case.

    The bytes 0x00-0x03 take the values 65/67/71/84 (``A``/``C``/``G``/``T``),
    which no other byte uses.  The table swaps those eight values and is
    otherwise the upper-case map, so it also decodes: ``_CODES[code]`` is the
    upper-cased byte the code came from.
    """
    table = np.arange(256, dtype=np.uint8)
    table[ord("a") : ord("z") + 1] -= ord("a") - ord("A")
    for code, base in enumerate(BASES):
        table[[ord(base), ord(base.lower())]] = code
        table[code] = ord(base)
    return table


_CODES = _byte_codes()
_CODE_BYTES = _CODES.tobytes()


def words_per_read(read_length: int, word_bits: int = WORD_BITS_32) -> int:
    """Number of machine words needed to store ``read_length`` encoded bases.

    A 100 bp read needs ``ceil(200 / 32) = 7`` 32-bit words, matching the
    paper's "seven words" figure.
    """
    if read_length < 0:
        raise ValueError("read_length must be non-negative")
    bases_per_word = word_bits // BITS_PER_BASE
    return -(-read_length // bases_per_word)


def encode_to_int(sequence: str) -> int:
    """Encode ``sequence`` into a single arbitrary-precision bit-vector.

    The first base occupies the most significant 2 bits.  ``N`` bases are not
    representable; callers must check :func:`~repro.genomics.alphabet.contains_unknown`
    first (the filter passes such pairs through undefined).
    """
    value = 0
    for base in sequence.upper():
        value = (value << BITS_PER_BASE) | BASE_TO_CODE[base]
    return value


def decode_from_int(value: int, length: int) -> str:
    """Decode ``length`` bases from a bit-vector produced by :func:`encode_to_int`."""
    bases = []
    for i in range(length):
        shift = BITS_PER_BASE * (length - 1 - i)
        bases.append(CODE_TO_BASE[(value >> shift) & 0b11])
    return "".join(bases)


def encode_to_codes(sequence: str) -> np.ndarray:
    """Encode ``sequence`` into an array of per-base 2-bit codes (uint8).

    Raises
    ------
    ValueError
        If the sequence contains characters outside ``ACGTacgt``.
    """
    raw = np.frombuffer(sequence.encode("ascii"), dtype=np.uint8)
    codes = _ASCII_CODE[raw]
    if np.any(codes == 255):
        bad = chr(int(raw[np.argmax(codes == 255)]))
        raise ValueError(f"cannot 2-bit encode character {bad!r}")
    return codes


def decode_from_codes(codes: np.ndarray) -> str:
    """Decode an array of per-base codes back into a string."""
    return "".join(CODE_TO_BASE[int(c)] for c in codes)


def pack_codes_to_words(codes: np.ndarray, word_bits: int = WORD_BITS_64) -> np.ndarray:
    """Pack per-base codes into big-endian machine words.

    Parameters
    ----------
    codes:
        1-D (single sequence) or 2-D (batch, rows are sequences) array of
        2-bit codes.
    word_bits:
        32 or 64.  The last word is padded with zero bits on the right
        (towards the least significant end), i.e. the padding behaves like
        trailing ``A`` bases; the filters mask those positions out.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(..., n_words)`` with dtype ``uint32``/``uint64``.
    """
    if word_bits not in (WORD_BITS_32, WORD_BITS_64):
        raise ValueError("word_bits must be 32 or 64")
    codes = np.asarray(codes, dtype=np.uint8)
    single = codes.ndim == 1
    if single:
        codes = codes[np.newaxis, :]
    n, length = codes.shape
    bases_per_word = word_bits // BITS_PER_BASE
    n_words = words_per_read(length, word_bits)
    padded_len = n_words * bases_per_word
    dtype = np.uint32 if word_bits == WORD_BITS_32 else np.uint64
    padded = np.zeros((n, padded_len), dtype=np.uint8)
    padded[:, :length] = codes
    # Compose four 2-bit codes into each byte (base 0 in the top bits), then
    # reverse the bytes of every word so the little-endian view places base 0
    # in the most significant bits — a handful of uint8 passes instead of a
    # 64-bit multiply-accumulate over every base.
    quads = padded.reshape(n, padded_len // 4, 4)
    byte_view = (
        (quads[..., 0] << 6) | (quads[..., 1] << 4) | (quads[..., 2] << 2) | quads[..., 3]
    )
    bytes_per_word = word_bits // 8
    if np.little_endian:
        grouped = byte_view.reshape(n, n_words, bytes_per_word)[..., ::-1]
        flat = np.ascontiguousarray(grouped).reshape(n, n_words * bytes_per_word)
    else:  # pragma: no cover - big-endian hosts need no byte reversal
        flat = byte_view
    words = flat.view(dtype)
    return words[0] if single else words


def unpack_words_to_codes(
    words: np.ndarray, length: int, word_bits: int = WORD_BITS_64
) -> np.ndarray:
    """Inverse of :func:`pack_codes_to_words` for a known sequence ``length``."""
    words = np.asarray(words)
    single = words.ndim == 1
    if single:
        words = words[np.newaxis, :]
    bases_per_word = word_bits // BITS_PER_BASE
    shifts = np.arange(bases_per_word - 1, -1, -1, dtype=np.uint64) * BITS_PER_BASE
    expanded = (words[:, :, np.newaxis].astype(np.uint64) >> shifts) & np.uint64(0b11)
    codes = expanded.reshape(words.shape[0], words.shape[1] * bases_per_word)
    codes = codes[:, :length].astype(np.uint8)
    return codes[0] if single else codes


class EncodedBatch:
    """A batch of equal-length sequences, encoded exactly once.

    The batch carries both representations the filtering stack works in:

    ``codes``
        ``(n_sequences, length)`` uint8 array of per-base codes: 0-3 for
        ``A/C/G/T``, and at least 4 for any other byte, which keeps its
        identity (see the module docstring).
    ``words``
        ``(n_sequences, n_words)`` packed word array (2 bits per base, first
        base in the most significant bits of word 0).  Packed lazily from
        ``codes`` on first access and cached, so filters that never touch the
        word form do not pay for the packing.  An undefined row packs with
        its non-ACGT codes read as 0.
    ``undefined``
        Boolean mask marking sequences that contain an ``N`` (or any other
        non-ACGT byte), which have no 2-bit encoding.
    ``length`` / ``lengths``
        Bases per sequence (one shared value; ``lengths`` is the broadcast
        per-sequence view for callers that want an array).

    Index/slice views (``batch[sel]`` / :meth:`take`) select rows of the
    existing arrays — no string is ever re-encoded and cached word rows are
    carried along, which is what makes cascade survivors and device shares
    zero-copy with respect to encoding work.
    """

    __slots__ = ("codes", "undefined", "length", "word_bits", "_words")

    def __init__(
        self,
        codes: np.ndarray,
        undefined: np.ndarray,
        length: int | None = None,
        word_bits: int = WORD_BITS_64,
        words: np.ndarray | None = None,
    ):
        if word_bits not in (WORD_BITS_32, WORD_BITS_64):
            raise ValueError("word_bits must be 32 or 64")
        self.codes = codes
        self.undefined = undefined
        self.length = int(codes.shape[-1] if length is None else length)
        self.word_bits = int(word_bits)
        self._words = words

    @classmethod
    def from_strings(
        cls, sequences: "Sequence[str | bytes]", word_bits: int = WORD_BITS_64
    ) -> "EncodedBatch":
        """Encode equal-length sequences (the one-and-only encode)."""
        codes, undefined = encode_batch_codes(sequences)
        return cls(codes, undefined, word_bits=word_bits)

    @property
    def words(self) -> np.ndarray:
        """Packed word array; computed from ``codes`` on first access."""
        if self._words is None:
            words = pack_codes_to_words(self.codes, word_bits=self.word_bits)
            rows = np.flatnonzero(self.undefined)
            if rows.size:
                # Only the undefined rows are copied: their non-ACGT codes
                # would spill into the neighbouring bases' bits.
                defined = self.codes[rows]
                defined[defined > 3] = 0
                words[rows] = pack_codes_to_words(defined, word_bits=self.word_bits)
            self._words = words
        return self._words

    @property
    def n_sequences(self) -> int:
        return int(self.codes.shape[0])

    @property
    def n_words(self) -> int:
        return words_per_read(self.length, self.word_bits)

    @property
    def lengths(self) -> np.ndarray:
        """Per-sequence lengths (all equal within a batch)."""
        return np.full(self.n_sequences, self.length, dtype=np.int64)

    def __len__(self) -> int:
        return self.n_sequences

    def __getitem__(self, selection) -> "EncodedBatch":
        """Row selection (slice or index array) without re-encoding."""
        words = None if self._words is None else self._words[selection]
        return EncodedBatch(
            self.codes[selection],
            self.undefined[selection],
            self.length,
            self.word_bits,
            words,
        )

    def take(self, indices) -> "EncodedBatch":
        """Alias of ``batch[indices]`` for explicit index selection."""
        return self[indices]


class EncodedPairBatch:
    """Parallel read / reference-segment batches plus the combined undefined mask.

    This is the unit the encode-once pipeline threads through
    :class:`repro.engine.FilterEngine`, :class:`repro.engine.FilterCascade`,
    the streaming runtime and the mapper: built once at ingest (from strings,
    or from code rows gathered out of encoded reads and the encoded
    reference), then only sliced (device shares), index-selected (cascade
    survivors) or concatenated (chunks cut across ingest blocks).
    """

    __slots__ = ("reads", "refs", "undefined")

    def __init__(
        self,
        reads: EncodedBatch,
        refs: EncodedBatch,
        undefined: np.ndarray | None = None,
    ):
        if reads.codes.shape != refs.codes.shape:
            raise ValueError("read and reference code arrays must have the same shape")
        self.reads = reads
        self.refs = refs
        self.undefined = (
            (reads.undefined | refs.undefined) if undefined is None else undefined
        )

    @classmethod
    def from_lists(
        cls,
        reads: "Sequence[str | bytes]",
        segments: "Sequence[str | bytes]",
        word_bits: int = WORD_BITS_64,
    ) -> "EncodedPairBatch":
        """Encode parallel read/segment lists (empty lists yield an empty batch)."""
        if len(reads) != len(segments):
            raise ValueError("reads and segments must have the same length")
        if len(reads) == 0:
            empty_codes = np.zeros((0, 0), dtype=np.uint8)
            empty_undef = np.zeros(0, dtype=bool)
            empty = EncodedBatch(empty_codes, empty_undef, 0, word_bits)
            return cls(empty, empty)
        return cls(
            EncodedBatch.from_strings(reads, word_bits=word_bits),
            EncodedBatch.from_strings(segments, word_bits=word_bits),
        )

    @classmethod
    def from_codes(
        cls,
        reads: "tuple[np.ndarray, np.ndarray]",
        refs: "tuple[np.ndarray, np.ndarray]",
    ) -> "EncodedPairBatch":
        """Wrap already-encoded ``(codes, undefined)`` rows of each side."""
        return cls(EncodedBatch(*reads), EncodedBatch(*refs))

    @classmethod
    def concatenate(cls, parts: "Sequence[EncodedPairBatch]") -> "EncodedPairBatch":
        """The rows of ``parts`` (of one length) in order; one part is returned as is."""
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return cls.from_lists([], [])

        def joined(sides: "list[EncodedBatch]") -> "tuple[np.ndarray, np.ndarray]":
            codes = np.concatenate([side.codes for side in sides])
            return codes, np.concatenate([side.undefined for side in sides])

        return cls.from_codes(
            joined([part.reads for part in parts]), joined([part.refs for part in parts])
        )

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    @property
    def n_pairs(self) -> int:
        return self.reads.n_sequences

    @property
    def length(self) -> int:
        return self.reads.length

    @property
    def read_codes(self) -> np.ndarray:
        return self.reads.codes

    @property
    def ref_codes(self) -> np.ndarray:
        return self.refs.codes

    @property
    def read_words(self) -> np.ndarray:
        return self.reads.words

    @property
    def ref_words(self) -> np.ndarray:
        return self.refs.words

    def __len__(self) -> int:
        return self.n_pairs

    def __getitem__(self, selection) -> "EncodedPairBatch":
        """Pair selection (slice or index array) without re-encoding."""
        return EncodedPairBatch(
            self.reads[selection], self.refs[selection], self.undefined[selection]
        )

    def select(self, indices) -> "EncodedPairBatch":
        """Alias of ``pairs[indices]``: pure index selection (cascade survivors)."""
        return self[indices]


def encode_codes(sequence: "str | bytes") -> np.ndarray:
    """The 1-D batch codes of one sequence (any bytes; see the module docstring)."""
    raw = sequence if isinstance(sequence, (bytes, bytearray)) else sequence.encode("ascii")
    # bytes.translate is one C pass: 0.11 ms per 100 kB against 0.33 ms for a
    # NumPy table lookup (2-vCPU x86 host, NumPy 2.4).
    return np.frombuffer(bytearray(raw.translate(_CODE_BYTES)), dtype=np.uint8)


def encode_batch_codes(
    sequences: "Sequence[str | bytes]",
) -> tuple[np.ndarray, np.ndarray]:
    """Encode equal-length sequences into per-base codes plus an undefined mask.

    ``sequences`` may be any sequence (list, tuple, NumPy array, ...) of
    strings — or of ``bytes``/raw ASCII lines, which are consumed directly
    without a bytes → str → bytes round trip.  No list copy is forced on the
    caller.  Returns ``(codes, undefined)`` where ``codes`` is ``(n, length)``
    uint8 — 0-3 for ``A/C/G/T`` in either case, at least 4 for any other
    byte, so ``encode_batch_codes(["ACGNACGT"])`` is ``[0, 1, 2, 78, 0, 1,
    2, 3]`` — and ``undefined`` marks the sequences holding a code above 3.
    """
    n = len(sequences)
    if n == 0:
        raise ValueError("encode_batch_codes requires at least one sequence")
    length = len(sequences[0])
    for s in sequences:
        if len(s) != length:
            raise ValueError("all sequences in a batch must have equal length")
    if isinstance(sequences[0], (bytes, bytearray)):
        joined = b"".join(sequences)
    else:
        joined = "".join(sequences).encode("ascii")
    codes = encode_codes(joined)
    undefined = np.zeros(n, dtype=bool)
    if length:
        undefined[non_acgt_positions(codes) // length] = True
    return codes.reshape(n, length), undefined


def non_acgt_positions(codes: np.ndarray) -> np.ndarray:
    """Sorted positions of the bytes other than A/C/G/T in 1-D batch ``codes``."""
    return np.flatnonzero(codes > 3)


def gather_windows(
    codes: np.ndarray, undefined_positions: np.ndarray, starts: np.ndarray, length: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``codes[start : start + length]`` of a 1-D code array, and their undefined mask.

    Every window must lie inside ``codes``.  ``undefined_positions`` are
    :func:`non_acgt_positions` of ``codes``, and a row is undefined when it
    holds one of them: no ``(rows, length)`` index matrix is built.
    """
    starts = np.asarray(starts, dtype=np.int64)
    rows = sliding_window_view(codes, length)[starts]
    undefined = np.searchsorted(undefined_positions, starts) != np.searchsorted(
        undefined_positions, starts + length
    )
    return rows, undefined


def decode_pairs(blocks: "Iterable[EncodedPairBatch]") -> Iterator[tuple[str, str]]:
    """The upper-cased ``(read, segment)`` strings of every row of ``blocks``, in order.

    The one way back from codes to strings, for callers that want strings
    (oracles and fixtures); blocks are decoded as they are pulled.
    """

    def rows(batch: EncodedBatch) -> list[str]:
        text = _CODES[batch.codes].tobytes().decode("latin-1")
        step = batch.length
        if step == 0:
            return [""] * batch.n_sequences
        return [text[at : at + step] for at in range(0, len(text), step)]

    for block in blocks:
        yield from zip(rows(block.reads), rows(block.refs))


def encode_batch(
    sequences: "Sequence[str | bytes]", word_bits: int = WORD_BITS_64
) -> EncodedBatch:
    """Encode a list of equal-length sequences into an :class:`EncodedBatch`.

    Sequences containing ``N`` (or any non-ACGT character) are flagged in the
    ``undefined`` mask; their codes keep each such byte's identity and their
    words read it as 0.  The filters give such pairs a direct pass with an
    estimate of 0, mirroring the paper's design choice.
    """
    return EncodedBatch.from_strings(sequences, word_bits=word_bits)
