"""Bit-level coding primitives: quantization, the enhanced Zigzag mapping, Varint.

The Varint here is bit-oriented rather than byte-oriented.  A value is split
into ``chunk_bits``-bit payload chunks, least-significant chunk first.  Each
chunk is emitted as one continuation flag (1 = more chunks follow, 0 = final
chunk) followed by its payload bits, most-significant bit first.  Trailing
all-zero chunks are never emitted, so the final chunk is the highest nonzero
one (or a single zero chunk for the value 0).

A signed field stores its enhanced Zigzag code (every code >= 1).  At
``chunk_bits == 1`` the final chunk's payload bit of such a code is provably
1 and is omitted from storage.  :func:`pack_varints` writes a whole sequence
of codes with array operations, and :func:`split_varints` splits a run of
fields of one class, unsigned or signed, back into their codes with array
operations.  A field that cannot be read is only marked there; a reader
that reaches it raises the error :func:`_field_error` names from its bits.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CorruptionError, PilotCError, TruncationError

_EXACT_FLOAT = float(1 << 53)  # largest range where float64 holds exact integers
_PACK_BATCH = 1 << 12  # codes per pass of pack_varints, to keep its temporaries small


def round_half_away(v: float) -> int:
    """Round to the nearest integer, ties away from zero."""
    if v >= 0.0:
        return int(math.floor(v + 0.5))
    return int(math.ceil(v - 0.5))


# ---------------------------------------------------------------------------
# scalar quantization: values are stored as the nearest multiple of 2*step,
# so the reconstruction error never exceeds step
# ---------------------------------------------------------------------------

def quantize_array(x, step: float) -> np.ndarray:
    """Map each value to the index of the nearest multiple of ``2 * step``,
    ties away from zero; returns int64 indices."""
    if not 0.0 < step < math.inf:
        raise ValueError(f"quantization step must be positive and finite, got {step}")
    return _round_index(x, 2.0 * step, "value")


def dequantize_array(q, step: float) -> np.ndarray:
    return np.asarray(q, dtype=float) * (2.0 * step)


# ---------------------------------------------------------------------------
# timestamp quantization: time indices use step eps_t (not 2*eps_t), so the
# reconstruction error is at most eps_t / 2
# ---------------------------------------------------------------------------

def time_index_array(t, eps_t: float) -> np.ndarray:
    """Index of the nearest multiple of ``eps_t``, ties away from zero;
    index ``i`` stands for the time ``i * eps_t``."""
    if not 0.0 < eps_t < math.inf:
        raise ValueError(f"time precision must be positive and finite, got {eps_t}")
    return _round_index(t, eps_t, "time")


def _round_index(x, unit: float, what: str) -> np.ndarray:
    """Index of the nearest multiple of ``unit``, ties away from zero, as int64
    (a numpy scalar for a scalar or 0-d ``x``).  The rounding runs in place
    in one float buffer, never the caller's array."""
    v = np.asarray(x, dtype=float)
    if not v.size:
        return np.zeros(v.shape, dtype=np.int64)
    size = np.abs(v, out=np.empty(v.shape))
    # NaN and inf propagate to the max; the range is checked in Python
    # floats, so a huge value cannot overflow in numpy
    top = float(np.maximum.reduce(size, axis=None))
    if not top < math.inf:
        raise ValueError(f"cannot quantize a non-finite {what}")
    if top / unit + 0.5 >= _EXACT_FLOAT:
        raise OverflowError(f"{what} index exceeds the exact integer range of float64")
    size /= unit
    size += 0.5
    np.floor(size, out=size)
    np.copysign(size, v, out=size)
    return size.astype(np.int64)[()]


# ---------------------------------------------------------------------------
# signed -> unsigned mapping
# ---------------------------------------------------------------------------

def enhanced_zigzag_map(values):
    """n >= 0 -> 2n + 1, n < 0 -> 2|n|, elementwise over an int or an
    array-like of ints; the uint64 codes are always >= 1."""
    try:
        n = np.asarray(values, dtype=np.int64)
    except OverflowError:
        raise OverflowError("enhanced zigzag code exceeds 64 bits") from None
    # one more than the zigzag code 2n or 2|n| - 1, in two's complement
    codes = ((n.view(np.uint64) << np.uint64(1)) ^ (n >> 63).view(np.uint64)) + np.uint64(1)
    if not codes.all():  # only -2**63 wraps, its code being 2**64
        raise OverflowError("enhanced zigzag code exceeds 64 bits")
    return codes[()]


# ---------------------------------------------------------------------------
# varint
# ---------------------------------------------------------------------------

def pack_varints(codes, signed, chunk_bits: int) -> bytes:
    """Write a sequence of codes as consecutive varints, zero-padded to bytes.

    ``codes`` holds ints in 0..2**64-1.  ``signed`` is a boolean per code that
    marks enhanced-zigzag codes, which must be >= 1; at chunk length 1 their
    final payload bit is therefore 1 and is not stored.
    """
    if not 1 <= chunk_bits <= 32:
        raise ValueError(f"chunk length must be in 1..32, got {chunk_bits}")
    # a signed integer array would wrap into uint64 codes; Python ints are checked below
    if type(codes) is np.ndarray and codes.dtype.kind == "i" and (codes < 0).any():
        raise ValueError("varint codes must be non-negative")
    signed = np.asarray(signed, dtype=bool)
    parts = [_varint_bits(codes[i:i + _PACK_BATCH], signed[i:i + _PACK_BATCH], chunk_bits)
             for i in range(0, len(codes), _PACK_BATCH)]
    return np.packbits(np.concatenate(parts)).tobytes() if parts else b""


def _varint_bits(codes, signed: np.ndarray, l: int) -> np.ndarray:
    """The stored bits of a nonempty batch of codes, one uint8 per bit."""
    try:
        u = np.asarray(codes, dtype=np.uint64)
    except OverflowError:
        if min(codes) < 0:
            raise ValueError("varint codes must be non-negative") from None
        raise OverflowError("varint code exceeds 64 bits") from None
    if not u[signed].all():
        raise ValueError("a signed field needs an enhanced zigzag code >= 1")
    # n chunks hold the codes in 2**(l*(n-1)) .. 2**(l*n) - 1
    steps = np.left_shift(np.uint64(1), np.arange(l, 64, l, dtype=np.uint64))
    n_chunks = 1 + steps.searchsorted(u, side="right")
    last = n_chunks.cumsum() - 1  # chunk index of each code's final chunk
    shift = l * (np.arange(last[-1] + 1) - (last + 1 - n_chunks).repeat(n_chunks))
    mask = (1 << l) - 1
    word = ((u.repeat(n_chunks) >> shift.astype(np.uint64)) & mask) | (1 << l)
    word[last] &= mask  # the final chunk's flag is 0
    # one row per chunk: the flag, then the payload MSB first
    rows = np.empty((word.size, l + 1), dtype=np.uint8)
    for t in range(l + 1):
        rows[:, t] = (word >> (l - t)) & 1
    bits = rows.ravel()
    if l == 1:  # a signed field's final payload bit is implied
        keep = np.ones(bits.size, dtype=bool)
        keep[2 * last[signed] + 1] = False
        bits = bits[keep]
    return bits


def split_varints(bits: np.ndarray, l: int,
                  signed: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split ``bits``, one uint8 per bit, into the varints of chunk length
    ``l`` that follow each other from its first bit.  Returns per field its
    code, uint64, whether it can be read, and the bit after it; the bits
    after the last field that ends are a tail that no field ends in.

    Every chunk is ``l + 1`` bits, so a field ends with each chunk whose flag
    is 0, except in a ``signed`` run at ``l == 1``: there a final chunk is a
    bare 0 flag, whose payload bit 1 is implied (see :func:`_bare_flags`).
    A field can be read when its code lies below 2**64: at most 64 // l + 1
    chunks, and a final payload below 2**(64 % l) if that many.  The codes
    are the chunks' payloads, shifted in place to their place in the field
    and joined in one ``bitwise_or.reduceat``.  No bits make it raise.
    """
    if not 1 <= l <= 32:
        raise ValueError(f"chunk length must be in 1..32, got {l}")
    width = l + 1
    implied = signed and l == 1
    if implied:
        bits, ends = _bare_flags(bits)
    cut = bits.size - bits.size % width  # the bits of whole chunks
    after = (bits[:cut:width] == 0).nonzero()[0] + 1  # the chunk after each field's final one
    first = np.concatenate(([0], after))[:-1]
    length = after - first
    if not implied:
        ends = after * width
    cut = width * after[-1] if after.size else 0  # the bits of whole fields
    payload = bits[1:cut:width].astype(np.uint64)
    for t in range(2, width):
        payload <<= 1
        payload |= bits[t:cut:width]
    # a final payload at bit 64 or beyond counts as one chunk more
    readable = length + (payload[after - 1] >= 1 << 64 % l) <= 64 // l + 1
    # shifts past bit 63 only meet fields that cannot be read
    shift = np.arange(payload.size, dtype=np.int64)
    shift -= first.repeat(length)
    shift *= l
    payload <<= shift.view(np.uint64)
    return np.bitwise_or.reduceat(payload, first), readable, ends


def _bare_flags(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A signed run at chunk length 1 with a 1 put after each bare final
    flag, so that every chunk is 2 bits, and the bit after each field in
    ``bits``.  After any 0 bit the next bit starts a chunk, so a 0 that
    follows an even run of 1 bits is a flag, and ends a field."""
    zeros = (bits == 0).nonzero()[0]
    run = zeros.copy()  # one more than the 1s before each 0
    run[1:] -= zeros[:-1]
    run[:1] += 1
    ends = zeros[(run & 1) == 1] + 1
    put = ends + np.arange(ends.size)  # where the 1s go
    is_put = np.zeros(bits.size + ends.size, dtype=bool)
    is_put[put] = True
    wide = np.zeros(is_put.size, dtype=np.uint8)
    wide[~is_put] = bits
    wide[put] = 1
    return wide, ends


def _field_error(data: np.ndarray, pos: int, l: int, final_bits: int) -> PilotCError:
    """The error of reading the field at bit ``pos`` of ``data`` (uint8) at
    chunk length ``l``, with ``final_bits`` stored final payload bits, when
    that field cannot be read: :class:`CorruptionError` past 64 // l flagged
    chunks, :class:`TruncationError` when the bits run out first, and
    otherwise :class:`CorruptionError` for a code of 2**64 or more, which no
    writer produces."""
    width, max_flagged = l + 1, 64 // l
    stop = min(pos + (max_flagged + 1) * width + 1, 8 * data.size)  # past the longest field
    bits = np.unpackbits(data[pos // 8:(stop + 7) // 8])
    bits = bits[pos % 8:stop - pos // 8 * 8].tolist()
    k = 0  # complete flagged chunks, up to one too many
    while k <= max_flagged and width * k + l < len(bits) and bits[width * k]:
        k += 1
    if k > max_flagged:
        return CorruptionError("varint longer than any encodable value")
    if width * k + 1 + final_bits > len(bits) or bits[width * k]:
        return TruncationError(f"bitstream exhausted inside the varint at bit {pos}")
    return CorruptionError("varint code exceeds 64 bits")
