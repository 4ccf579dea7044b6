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
position of a window, only the span of the field that would start there,
which ``container``'s walk hops through, and decodes the signed fields the
walk marks in one array operation per window.  Both readers fail alike:
only a read that reaches a field that cannot be read raises, with the error
:func:`_field_error` names from the field's bits, and the reader stays in
front of that field.
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
    payload bits before that flag.  For every start offset of a window the
    reader tabulates with array operations only that end, as the span of
    bits before it.  The payload bits of the fields that start at even and
    at odd offsets are two streams, the window's odd and even bits, which
    it keeps as two Python ints.  A window holds ``_WINDOW`` start offsets
    and is built when the reads reach it, so memory is bounded by the
    window, not the body.

    ``container``'s walk hops through :attr:`spans` itself.  A field at
    offset i whose entry s is at most 126 is readable as either type: the
    next field starts at i + s + 1 after a signed one and at i + s + 2
    after an unsigned one, whose code is the low s / 2 + 1 bits of
    ``payload[i & 1] >> (i >> 1)``.  A signed field it marks in
    :attr:`marks` with a nonzero kind is decoded with the window's other
    marked fields in one array operation when the reads leave the window;
    :meth:`decoded` hands them over in field order.  An entry above 126
    (64 or more flagged chunks, a final flag at the body's last bit, an
    offset past the window) sends the read to :meth:`read`, which moves to
    the next window, reads the field, or raises the error
    :func:`_field_error` names from the field's bits, with the reader in
    front of that field; the per-field reads go through it too.
    """

    def __init__(self, data: bytes, chunk_bits: int) -> None:
        if chunk_bits != 1:
            raise ValueError(f"table reader chunk length must be 1, got {chunk_bits}")
        self._data = np.frombuffer(data, dtype=np.uint8)
        self._n_bits = 8 * self._data.size
        # the window's lists, refilled in place so that the walk's names stay valid
        self.spans = bytearray()  # per start offset, then _REACH offsets past the window
        self.payload = [0, 0]  # the payload streams of even and of odd offsets
        self.marks = bytearray()  # per start offset, the kind of a marked signed field
        self._decoded: list[tuple[np.ndarray, np.ndarray]] = []  # flushed windows' fields
        self._i = self._window(0)  # the offset of the next read in the window

    @property
    def pos(self) -> int:
        return self._base + self._i

    @property
    def remaining_bits(self) -> int:
        return self._n_bits - self.pos

    def remaining(self, i: int) -> int:
        """The bits from offset ``i`` of the window to the end of the body."""
        return self._n_bits - self._base - i

    def unsigned(self) -> int:
        v, self._i = self.read(self._i, False)
        return v

    def signed(self) -> int:
        v, self._i = self.read(self._i, True)
        return v

    def signeds(self, n: int) -> tuple[int, ...]:
        return tuple([self.signed() for _ in range(n)])

    def read(self, i: int, signed: bool, mark: int = 0) -> tuple[int, int]:
        """The value of the field at offset ``i``, read as signed or
        unsigned, and the offset after it, in the window that then holds
        the field: past this window, the next one is built.  ``mark``, when
        nonzero, marks the field for :meth:`decoded`.  Raises the error of
        reading a field that cannot be read, with the reader in front of
        it."""
        if i >= self._m:
            start = self._base + i
            if start >= self._n_bits:
                self._i = i
                raise _field_error(self._data, start, 1, 0 if signed else 1)
            self._flush()
            i = self._window(start)
        s = self.spans[i]
        if s == _REACH:  # where the walk stops; the array holds the true span
            s = int(self._span[i])
        k = s >> 1  # flagged chunks
        code = self.payload[i & 1] >> (i >> 1)
        if signed:
            readable = s <= 126
            code = code & ((1 << k) - 1) | 1 << k
        else:  # the final payload bit must be stored, and 0 after 64 flagged chunks
            readable = s <= 128 and i + s + 2 <= self._n
            code = code & ((2 << k) - 1) if readable else 0
            readable = readable and not code >> 64
        if not readable:
            self._i = i
            raise _field_error(self._data, self._base + i, 1, 0 if signed else 1)
        if mark:
            self.marks[i] = mark
        if signed:
            return code >> 1 if code & 1 else -(code >> 1), i + s + 1
        return code, i + s + 2

    def decoded(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """The kinds, uint8, and the values, int64, of the fields marked
        since the last call, in field order; the reader then stands at
        offset ``i``."""
        self._flush()
        self._i = i
        chunks, self._decoded = self._decoded, []
        if len(chunks) == 1:
            return chunks[0]
        if not chunks:
            return np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.int64)
        kinds, values = zip(*chunks)
        return np.concatenate(kinds), np.concatenate(values)

    def _window(self, start: int) -> int:
        """Tabulate the window of the fields that start from bit ``start``
        on; returns the offset of ``start`` in it."""
        base = self._base = start - start % 8
        data = self._data[base // 8:(base + _WINDOW + 137) // 8]
        n = self._n = 8 * data.size
        # a field spans at most 64 flagged chunks and a final one, 130 bits;
        # zero bits after the data let every start offset see as many
        bits = np.unpackbits(data, count=n + _REACH)
        m = self._m = min(_WINDOW, n)  # start offsets
        # the first 0 flag at or after each offset, at the same parity (a
        # column of the reversed bit pairs), or _REACH bits on from the
        # offset or a later 1 flag, whichever comes first: a span past 128
        # reads as _REACH
        offsets = np.arange(n, dtype=np.int32)
        zero_at = np.where(bits[:n], offsets + _REACH, offsets)
        end = np.minimum.accumulate(zero_at[::-1].reshape(-1, 2), axis=0).ravel()[::-1][:m]
        self._span = end - offsets[:m]  # twice the flagged chunks
        # the walk reads a field itself only when its final payload bit is stored
        self.spans[:] = np.where(end < n - 1, self._span, _REACH).astype(np.uint8).tobytes()
        self.spans += _PAST_WINDOW
        # payload bit t of a field at offset p is bit p // 2 + t of stream p % 2:
        # the window's bits 1, 3, 5, ... or 2, 4, 6, ..., the two columns of
        # its bit pairs from bit 1 on, each read as an int
        streams = np.packbits(bits[1:n + 1].reshape(-1, 2).T, axis=1, bitorder="little").tobytes()
        size = len(streams) // 2
        self.payload[:] = [int.from_bytes(streams[:size], "little"),
                           int.from_bytes(streams[size:], "little")]
        # row p: the first 64 payload bits of the field at offset p
        self._payload_bits = np.ndarray((m, 64), np.uint8, bits, 1, (1, 2))
        self.marks[:] = bytes(m)
        return start - base

    def _flush(self) -> None:
        """Decode the window's marked fields, all signed, in one array
        operation, and clear their marks."""
        marks = np.frombuffer(self.marks, dtype=np.uint8)
        at = marks.nonzero()[0]
        if not at.size:
            return
        span = self._span[at]
        bits = self._payload_bits[at, :int(np.maximum.reduce(span)) // 2 + 1]
        # a code is its payload below bit span / 2, and a 1 there; the bits
        # the product weighs from the final chunk on lie above the mask
        half = (bits @ _HALF_WEIGHT[:bits.shape[1]]) & _HALF_MASK[span] | _TOP_HALF[span]
        self._decoded.append((marks[at], np.where(bits[:, 0], half, -half)))
        marks[at] = 0


# by bit t of a code, its weight in the half of the code; by span, the
# bits of the half below its top bit, and that top bit
_HALF_WEIGHT = np.array([0] + [1 << t for t in range(63)], dtype=np.int64)
_TOP_HALF = np.array([(1 << s // 2) >> 1 for s in range(127)], dtype=np.int64)
_HALF_MASK = np.maximum(_TOP_HALF - 1, 0)
_REACH = 130  # the bits a field can span; the span entry where the walk stops
_PAST_WINDOW = bytes([_REACH]) * _REACH  # the span entries of the offsets past a window


class FieldReads:
    """The walk's view of a reader that reads one field per call, as the
    l >= 2 readers do: its one span entry sends every read to :meth:`read`,
    whose offsets are all 0, and it keeps the values of the marked fields
    as it reads them."""

    spans = (_REACH,)
    payload = marks = None

    def __init__(self, reader) -> None:
        self._reader = reader
        self._kinds: list[int] = []
        self._values: list[int] = []

    def remaining(self, i: int) -> int:
        return self._reader.remaining_bits

    def read(self, i: int, signed: bool, mark: int = 0) -> tuple[int, int]:
        value = self._reader.signed() if signed else self._reader.unsigned()
        if mark:
            self._kinds.append(mark)
            self._values.append(value)
        return value, 0

    def decoded(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        out = np.array(self._kinds, dtype=np.uint8), np.array(self._values, dtype=np.int64)
        self._kinds, self._values = [], []
        return out


def _listed(values: np.ndarray, unreadable: np.ndarray) -> list:
    """``values`` as a list of ints, ``None`` where ``unreadable``.  The
    unreadable fields are mostly a tail, so only the part from the first of
    them goes through objects."""
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
        i = self._next
        c = self._codes[i]
        if not c:  # None: unreadable, or the tail; 0: no zigzag code
            self._fail(i)
        self._next = i + 1
        return c >> 1 if c & 1 else -(c >> 1)

    def signeds(self, n: int) -> tuple[int, ...]:
        return tuple([self.signed() for _ in range(n)])

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
