"""Bit-level coding primitives: quantization, the enhanced Zigzag mapping, Varint.

The Varint here is bit-oriented rather than byte-oriented.  A value is split
into ``chunk_bits``-bit payload chunks, least-significant chunk first.  Each
chunk is emitted as one continuation flag (1 = more chunks follow, 0 = final
chunk) followed by its payload bits, most-significant bit first.  Trailing
all-zero chunks are never emitted, so the final chunk is the highest nonzero
one (or a single zero chunk for the value 0).

A signed field stores its enhanced Zigzag code (every code >= 1).  At
``chunk_bits == 1`` the final chunk's payload bit of such a code is provably
1 and is omitted from storage; the reader restores it when the final flag is
seen.  :func:`pack_varints` writes a whole sequence of codes with array
operations.  :func:`varint_reader` picks the reader for a body, and both
readers decode with array operations: at ``chunk_bits >= 2`` every chunk is
``chunk_bits + 1`` bits, so :class:`ColumnarReader` splits the whole body
into field codes up front, by Horner's rule one pass per chunk index, and a
signed read maps the codes it takes; at ``chunk_bits == 1`` a field's length
depends on its type, so :class:`TableReader` tabulates, for every bit
position, the code and the value of the field of either type that would
start there, and a read only indexes lists.  Both readers fail alike: a
field that cannot be read is ``None`` in their tables, only a read that
reaches it raises, with the error :func:`_field_error` names from the
field's bits, and the reader stays in front of that field.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CorruptionError, PilotCError, TruncationError

_EXACT_FLOAT = float(1 << 53)  # largest range where float64 holds exact integers
_PACK_BATCH = 1 << 12  # codes per pass of pack_varints, to keep its temporaries small
_WINDOW = 1 << 13  # start positions per table of TableReader, to keep its tables small


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


class TableReader:
    """Reads, in order, the varints of a body written at chunk length 1.

    A field there is a run of flagged chunks ``1x``, then a final chunk:
    ``0x`` if unsigned, a bare ``0`` if signed, whose payload bit 1 is
    implied.  So a field that starts at bit p ends at the first 0 flag among
    bits p, p + 2, p + 4, ... whatever its type, and its code comes from the
    payload bits before that flag.  For every start position of a window the
    reader tabulates with array operations that end (as the span of bits
    before it), the unsigned code and the enhanced-zigzag value; a read is
    then one lookup for the end and one for the value.  A window holds
    ``_WINDOW`` start positions and is built when the reads reach it, so
    memory is bounded by the window, not the body.  A field that cannot be
    read is ``None`` in the code and value tables, and a read that reaches
    it raises :func:`_field_error`.
    """

    def __init__(self, data: bytes, chunk_bits: int) -> None:
        if chunk_bits != 1:
            raise ValueError(f"table reader chunk length must be 1, got {chunk_bits}")
        self._data = np.frombuffer(data, dtype=np.uint8)
        self._n_bits = 8 * self._data.size
        self._base = self._i = 0  # the window's first bit, and the offset into it
        # per start offset in the window: the bits before the final flag,
        # the unsigned code and the enhanced-zigzag value
        self._spans: list[int] = []
        self._codes: list[int | None] = []
        self._values: list[int | None] = []

    @property
    def pos(self) -> int:
        return self._base + self._i

    @property
    def remaining_bits(self) -> int:
        return self._n_bits - self.pos

    def unsigned(self) -> int:
        i = self._i
        try:
            v = self._codes[i]
        except IndexError:
            self._next_window(1)
            return self.unsigned()
        if v is None:
            raise _field_error(self._data, self.pos, 1, 1)
        self._i = i + self._spans[i] + 2
        return v

    def signed(self) -> int:
        i = self._i
        try:
            v = self._values[i]
        except IndexError:
            self._next_window(0)
            return self.signed()
        if v is None:
            raise _field_error(self._data, self.pos, 1, 0)
        self._i = i + self._spans[i] + 1
        return v

    def signeds(self, n: int) -> tuple[int, ...]:
        spans, values, i = self._spans, self._values, self._i
        out = []
        try:
            for _ in range(n):
                v = values[i]
                if v is None:
                    break
                out.append(v)
                i += spans[i] + 1
        except IndexError:
            pass
        self._i = i
        if len(out) < n:  # the rest starts in a later window, or fails
            out.extend([self.signed() for _ in range(n - len(out))])
        return tuple(out)

    def _next_window(self, final_bits: int) -> None:
        """Tabulate the fields that start in the window at the current
        position, or raise the error of reading there."""
        start = self.pos
        if start >= self._n_bits:
            raise _field_error(self._data, start, 1, final_bits)
        base = self._base = start - start % 8
        self._i = start - base
        # a field spans at most 64 flagged chunks and a final one, 130 bits
        bits = np.unpackbits(self._data[base // 8:(base + _WINDOW + 137) // 8])
        n = bits.size
        m = min(_WINDOW, n)  # start offsets
        # the first 0 flag at or after each offset, at the same parity; one
        # out of reach where there is none
        zero_at = np.where(bits, np.int32(n + 130), np.arange(n, dtype=np.int32))
        next_zero = np.empty(n, dtype=np.int32)
        for q in (0, 1):
            next_zero[q::2] = np.minimum.accumulate(zero_at[q::2][::-1])[::-1]
        end = next_zero[:m]
        span = end - np.arange(m, dtype=np.int32)  # twice the flagged chunks
        # payload[p] = the sum over k < 64 of bit p + 2k + 1 shifted left by k,
        # in six doubling steps; its bit n_flagged is the final payload bit
        payload = np.zeros(m + 126, dtype=np.uint64)
        stored = bits[1:payload.size + 1]
        payload[:stored.size] = stored
        for k in (1, 2, 4, 8, 16, 32):
            payload = payload[:-2 * k] | (payload[2 * k:] << np.uint64(k))
        top = np.left_shift(np.uint64(1), np.minimum(span >> 1, 63).astype(np.uint64))
        # from 63 flagged chunks on, the mask wraps to all 64 bits
        codes = payload & ((top << np.uint64(1)) - np.uint64(1))
        # a code is below 2**64 if n_flagged < 64, or if n_flagged = 64 and
        # its final payload bit, bit 64, is 0
        final_bit = np.take(bits, end + 1, mode="clip")
        signed_codes = (payload & (top - np.uint64(1))) | top
        half = (signed_codes >> np.uint64(1)).astype(np.int64)
        values = np.where(signed_codes & np.uint64(1), half, -half)
        self._spans = span.tolist()
        self._codes = _listed(codes, (span + final_bit > 128) | (end + 2 > n))
        self._values = _listed(values, (span > 126) | (end >= n))


def _listed(values: np.ndarray, unreadable: np.ndarray) -> list:
    """``values`` as a list of ints, ``None`` where ``unreadable``.  Fields
    that run past a window's bits make the unreadable ones mostly a tail,
    so only the part from the first of them goes through objects."""
    out = values.tolist()
    if unreadable.any():
        k = int(unreadable.argmax())
        out[k:] = np.where(unreadable[k:], None, values[k:]).tolist()
    return out


class ColumnarReader:
    """Reads, in order, the varints of a body written at chunk length >= 2.

    Every chunk is l + 1 bits there, so a field ends at each chunk whose flag
    is 0 whatever the field's type.  The whole body is split into field
    codes with array operations when the reader is built, by Horner's rule
    from each field's final chunk down: pass k shifts the codes of the fields
    of more than k chunks by l bits and adds their payload k chunks earlier.
    An unsigned read takes a code by index, and a signed read maps the codes
    of its slice to their enhanced-zigzag values.  A field that cannot be
    read, and the unterminated tail after the last field, is ``None`` in the
    code list, and a read that reaches it raises :func:`_field_error`; a
    signed read of the code 0 raises ``ValueError``.  A caller that finds
    fields by their :attr:`codes` can move the reader with :attr:`index` and
    gather many values at once with :meth:`unsigned_values` and
    :meth:`signed_values`.
    """

    def __init__(self, data: bytes, chunk_bits: int) -> None:
        l = chunk_bits
        if not 2 <= l <= 32:
            raise ValueError(f"columnar chunk length must be in 2..32, got {l}")
        width = l + 1
        self._data = np.frombuffer(data, dtype=np.uint8)
        bits = np.unpackbits(self._data)
        rows = bits[:bits.size - bits.size % width].reshape(-1, width)
        final = np.flatnonzero(rows[:, 0] == 0)  # each field's final chunk
        length = final - np.concatenate(([-1], final[:-1]))  # chunks per field
        # each chunk's payload, in the narrowest unsigned type of l bits
        payload = rows[:, 1].astype(np.min_scalar_type((1 << l) - 1))
        for t in range(2, width):
            payload <<= 1
            payload |= rows[:, t]
        # a field of 64 // l + 1 chunks has its final payload at bit l * (64 // l),
        # so it must be below 2**(64 % l); a longer field never reads
        most = 64 // l + 1
        top = payload[final]
        readable = (length < most) | ((length == most) & (top >> (64 % l) == 0))
        codes, shift = top.astype(np.uint64), np.uint64(l)
        idx, k = np.flatnonzero(readable & (length > 1)), 1
        while idx.size:
            codes[idx] = codes[idx] << shift | payload[final[idx] - k]
            k += 1
            idx = idx[length[idx] > k]

        self._code_array = codes
        self._readable = readable
        codes = _listed(codes, ~readable)
        codes.append(None)  # the tail, which has no final chunk
        self._codes = codes
        self._bit_end = (final + 1) * width
        self._l = l
        self._next = 0

    @property
    def pos(self) -> int:
        return int(self._bit_end[self._next - 1]) if self._next else 0

    @property
    def remaining_bits(self) -> int:
        return 8 * self._data.size - self.pos

    @property
    def codes(self) -> list:
        """Every field's code, then the tail's ``None``."""
        return self._codes

    @property
    def index(self) -> int:
        """The index in :attr:`codes` of the field the next read reads;
        setting it moves the reader there, at most to the tail."""
        return self._next

    @index.setter
    def index(self, i: int) -> None:
        if not 0 <= i < len(self._codes):
            raise IndexError(f"field {i} is past the end of the body")
        self._next = i

    def unsigned_values(self, idx: np.ndarray) -> np.ndarray:
        """The codes of the fields at ``idx``, as uint64; raises
        ``LookupError`` if one of them cannot be read."""
        if not self._readable[idx].all():
            raise LookupError("a field there is not readable")
        return self._code_array[idx]

    def signed_values(self, idx: np.ndarray) -> np.ndarray:
        """The enhanced-zigzag values of the fields at ``idx``, as int64;
        raises ``LookupError`` if one of them cannot be read as one."""
        codes = self.unsigned_values(idx)
        if not codes.all():
            raise LookupError("a field there is not a signed field")
        half = (codes >> np.uint64(1)).astype(np.int64)
        return np.where(codes & np.uint64(1), half, -half)

    def unsigned(self) -> int:
        i = self._next
        v = self._codes[i]
        if v is None:
            self._fail(i)
        self._next = i + 1
        return v

    def signed(self) -> int:
        return self.signeds(1)[0]

    def signeds(self, n: int) -> tuple[int, ...]:
        i = self._next
        codes = self._codes[i:i + n]
        if not all(codes):  # None: unreadable, or the tail; 0: no zigzag code
            self._fail(i + next(k for k, c in enumerate(codes) if not c))
        self._next = i + n
        return tuple([c >> 1 if c & 1 else -(c >> 1) for c in codes])

    def _fail(self, i: int) -> None:
        """Move in front of field ``i`` and raise the error of reading it."""
        self._next = i
        if self._codes[i] is not None:
            raise ValueError("enhanced zigzag code must be >= 1, got 0")
        raise _field_error(self._data, self.pos, self._l, self._l)


def varint_reader(data: bytes, chunk_bits: int) -> TableReader | ColumnarReader:
    """The reader for a container body of the given chunk length."""
    if chunk_bits == 1:
        return TableReader(data, chunk_bits)
    return ColumnarReader(data, chunk_bits)
