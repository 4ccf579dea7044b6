"""Bit-exact container serialization (.plc).

Layout, version 1:

    magic "PLTC" | version u8 | dim u8 | flags u8 (0) | chunk_bits u8
    dt, eps, eps_t, eps_p as little-endian float64
    varint: segment count, outlier count, correction count
    outliers:    per entry, varint time-index delta, then per dim an
                 enhanced-zigzag varint coordinate-index delta
    corrections: per entry, varint time-index delta, then per dim an
                 enhanced-zigzag varint quantized residual
    segments:    enhanced-zigzag varint t0-index delta from the previous
                 segment's grid-end index (0 before the first segment),
                 per dim an enhanced-zigzag varint quantized start value,
                 varint sample count, then per dim and per block:
                 enhanced-zigzag varint end delta, varint coefficient
                 count, that many enhanced-zigzag varint coefficients
    zero padding to a byte boundary

All varints use the header's chunk length.  The block partition is derived
from the sample count and the block size, which in turn derives from eps
and the dataset constants; a container therefore decodes correctly only
with the constants it was encoded with.
"""

from __future__ import annotations

import math
import struct

from .codec import (
    BitStream,
    enhanced_zigzag_map,
    enhanced_zigzag_unmap,
    round_half_away,
    varint_read,
    varint_write,
)
from .errors import CorruptionError, FormatError, TruncationError
from .model import (
    CompressedTrajectory,
    CorrectionEntry,
    EncodedBlock,
    OutlierEntry,
    SubTrajectorySegment,
    block_lengths,
)
from .params import DEFAULT_PROFILE, Layout

MAGIC = b"PLTC"
VERSION = 1
_HEADER_LEN = 8
_FLOAT_FIELDS = 4
_ARCHIVE_CHUNK_BITS = 7  # framing varints are byte-oriented


def segment_end_index(t0_index: int, n_samples: int, dt: float, eps_t: float) -> int:
    """Grid-end time index of a segment, computable on both codec sides."""
    return t0_index + round_half_away((n_samples - 1) * dt / eps_t)


def _write_unsigned(stream: BitStream, value: int, l: int) -> None:
    varint_write(stream, value, l)


def _write_signed(stream: BitStream, value: int, l: int) -> None:
    varint_write(stream, enhanced_zigzag_map(value), l, omit_final_bit=(l == 1))


def _read_unsigned(stream: BitStream, l: int) -> int:
    return varint_read(stream, l)


def _read_signed(stream: BitStream, l: int) -> int:
    return enhanced_zigzag_unmap(varint_read(stream, l, omit_final_bit=(l == 1)))


def _validate_model(model: CompressedTrajectory, profile) -> None:
    if not 1 <= model.dim <= 255:
        raise ValueError(f"dimension must be in 1..255, got {model.dim}")
    if not 1 <= model.chunk_bits <= 32:
        raise ValueError(f"chunk length must be in 1..32, got {model.chunk_bits}")
    for name, v in (("dt", model.dt), ("eps", model.eps),
                    ("eps_t", model.eps_t), ("eps_p", model.eps_p)):
        if not (v > 0.0 and math.isfinite(v)):
            raise ValueError(f"{name} must be positive and finite, got {v}")
    for entries, label in ((model.outliers, "outlier"), (model.corrections, "correction")):
        prev = 0
        for i, e in enumerate(entries):
            if len(e.coord_q if label == "outlier" else e.delta_q) != model.dim:
                raise ValueError(f"{label} entry {i} has wrong dimensionality")
            if i == 0 and e.t_index < 0:
                raise ValueError(
                    f"first {label} time index is negative ({e.t_index}); "
                    "timestamps must be non-negative"
                )
            if i > 0 and e.t_index <= prev:
                raise ValueError(f"{label} time indices must be strictly increasing")
            prev = e.t_index
    lay = Layout.derive(model.eps, model.eps_p, model.dim, profile)
    for si, seg in enumerate(model.segments):
        if seg.n_samples < 2:
            raise ValueError(f"segment {si} needs at least two samples")
        if len(seg.p0_q) != model.dim or len(seg.blocks) != model.dim:
            raise ValueError(f"segment {si} has wrong dimensionality")
        sizes = block_lengths(seg.n_velocities, lay.b_s)
        for d, per_dim in enumerate(seg.blocks):
            if len(per_dim) != len(sizes):
                raise ValueError(
                    f"segment {si} dim {d}: {len(per_dim)} blocks, "
                    f"expected {len(sizes)} for {seg.n_velocities} velocities"
                )
            for b, (blk, m) in enumerate(zip(per_dim, sizes)):
                limit = lay.budget(m) - 1
                if blk.c_f > limit:
                    raise ValueError(
                        f"segment {si} dim {d} block {b}: {blk.c_f} coefficients "
                        f"exceed the retention budget {limit}"
                    )
                if blk.c_f and blk.q_coeffs[-1] == 0:
                    raise ValueError(
                        f"segment {si} dim {d} block {b}: trailing zero coefficient"
                    )


def serialize(model: CompressedTrajectory, profile=DEFAULT_PROFILE) -> bytes:
    """Serialize a model; ``profile`` supplies the dataset constants a, b, c, d."""
    _validate_model(model, profile)
    l = model.chunk_bits
    s = BitStream()
    s.write_bytes(MAGIC)
    s.write_bits(VERSION, 8)
    s.write_bits(model.dim, 8)
    s.write_bits(0, 8)  # flags, reserved
    s.write_bits(l, 8)
    s.write_bytes(struct.pack("<dddd", model.dt, model.eps, model.eps_t, model.eps_p))
    _write_unsigned(s, len(model.segments), l)
    _write_unsigned(s, len(model.outliers), l)
    _write_unsigned(s, len(model.corrections), l)

    prev_t = 0
    prev_coord = [0] * model.dim
    for e in model.outliers:
        _write_unsigned(s, e.t_index - prev_t, l)
        prev_t = e.t_index
        for d in range(model.dim):
            _write_signed(s, e.coord_q[d] - prev_coord[d], l)
            prev_coord[d] = e.coord_q[d]

    prev_t = 0
    for e in model.corrections:
        _write_unsigned(s, e.t_index - prev_t, l)
        prev_t = e.t_index
        for v in e.delta_q:
            _write_signed(s, v, l)

    prev_end = 0
    for seg in model.segments:
        _write_signed(s, seg.t0_index - prev_end, l)
        prev_end = segment_end_index(seg.t0_index, seg.n_samples, model.dt, model.eps_t)
        for v in seg.p0_q:
            _write_signed(s, v, l)
        _write_unsigned(s, seg.n_samples, l)
        for per_dim in seg.blocks:
            for blk in per_dim:
                _write_signed(s, blk.end_delta_q, l)
                _write_unsigned(s, blk.c_f, l)
                for q in blk.q_coeffs:
                    _write_signed(s, q, l)
    return s.to_bytes()


def parse(data: bytes, profile=DEFAULT_PROFILE) -> CompressedTrajectory:
    """Inverse of :func:`serialize`; same ``profile`` constants required."""
    if len(data) < len(MAGIC):
        raise TruncationError(f"container too short for magic: {len(data)} bytes")
    if data[: len(MAGIC)] != MAGIC:
        raise FormatError("bad magic, not a PLTC container")
    if len(data) < _HEADER_LEN + 8 * _FLOAT_FIELDS:
        raise TruncationError("container truncated inside the fixed header")
    version, dim, flags, l = data[4:8]
    if version != VERSION:
        raise FormatError(f"unsupported container version {version}")
    if flags != 0:
        raise FormatError(f"unsupported flags byte {flags:#04x}")
    if dim < 1:
        raise CorruptionError("dimension byte must be at least 1")
    if not 1 <= l <= 32:
        raise CorruptionError(f"chunk length byte must be in 1..32, got {l}")
    dt, eps, eps_t, eps_p = struct.unpack_from("<dddd", data, _HEADER_LEN)
    for name, v in (("dt", dt), ("eps", eps), ("eps_t", eps_t), ("eps_p", eps_p)):
        if not (v > 0.0 and math.isfinite(v)):
            raise CorruptionError(f"{name} field must be positive and finite, got {v}")
    lay = Layout.derive(eps, eps_p, dim, profile)

    s = BitStream.from_bytes(data)
    s.seek(8 * (_HEADER_LEN + 8 * _FLOAT_FIELDS))
    try:
        n_segments = _read_unsigned(s, l)
        n_outliers = _read_unsigned(s, l)
        n_corrections = _read_unsigned(s, l)

        outliers = []
        t_idx = 0
        coord = [0] * dim
        for _ in range(n_outliers):
            t_idx += _read_unsigned(s, l)
            for d in range(dim):
                coord[d] += _read_signed(s, l)
            outliers.append(OutlierEntry(t_idx, tuple(coord)))

        corrections = []
        t_idx = 0
        for _ in range(n_corrections):
            t_idx += _read_unsigned(s, l)
            deltas = tuple(_read_signed(s, l) for _ in range(dim))
            corrections.append(CorrectionEntry(t_idx, deltas))

        segments = []
        prev_end = 0
        for _ in range(n_segments):
            t0_index = prev_end + _read_signed(s, l)
            p0_q = tuple(_read_signed(s, l) for _ in range(dim))
            n_samples = _read_unsigned(s, l)
            if n_samples < 2:
                raise CorruptionError(f"segment sample count {n_samples} below 2")
            prev_end = segment_end_index(t0_index, n_samples, dt, eps_t)
            sizes = block_lengths(n_samples - 1, lay.b_s)
            per_dims = []
            for _ in range(dim):
                blks = []
                for m in sizes:
                    end_delta = _read_signed(s, l)
                    c_f = _read_unsigned(s, l)
                    if c_f > lay.budget(m) - 1:
                        raise CorruptionError(
                            f"block declares {c_f} coefficients, the retention "
                            f"budget for {m} velocities is {lay.budget(m) - 1}"
                        )
                    coeffs = tuple(_read_signed(s, l) for _ in range(c_f))
                    if c_f and coeffs[-1] == 0:
                        raise CorruptionError("block ends in a zero coefficient")
                    blks.append(EncodedBlock(coeffs, end_delta))
                per_dims.append(tuple(blks))
            segments.append(
                SubTrajectorySegment(t0_index, p0_q, n_samples, tuple(per_dims))
            )
    except ValueError as exc:  # signed decode of a zero code, bad counts, ...
        raise CorruptionError(str(exc)) from exc

    if s.remaining_bits >= 8:
        raise CorruptionError(f"{s.remaining_bits} unread bits after the payload")
    if s.remaining_bits and s.read_bits(s.remaining_bits) != 0:
        raise CorruptionError("nonzero padding bits at end of container")

    return CompressedTrajectory(
        dim=dim, dt=dt, eps=eps, eps_t=eps_t, eps_p=eps_p, chunk_bits=l,
        segments=tuple(segments), outliers=tuple(outliers),
        corrections=tuple(corrections),
    )


def pack_archive(containers: list[bytes]) -> bytes:
    """Concatenate containers, each prefixed with its varint byte length."""
    s = BitStream()
    for payload in containers:
        varint_write(s, len(payload), _ARCHIVE_CHUNK_BITS)
        s.write_bytes(payload)
    return s.to_bytes()


def unpack_archive(data: bytes) -> list[bytes]:
    s = BitStream.from_bytes(data)
    out = []
    while s.remaining_bits >= 8:
        length = varint_read(s, _ARCHIVE_CHUNK_BITS)
        if length * 8 > s.remaining_bits:
            raise TruncationError(
                f"archive entry claims {length} bytes, {s.remaining_bits // 8} remain"
            )
        out.append(s.read_bytes(length))
    return out
