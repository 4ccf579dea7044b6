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

All varints use the header's chunk length l, so after the 40-byte header
the body is one flat run of chunked varints (see ``codec``).  ``serialize``
flattens the model into one list of field codes and writes it with a single
:func:`~pilotc.codec.pack_varints` call; ``parse`` walks the same field
order through the reader :func:`~pilotc.codec.varint_reader` picks.  At
l >= 2 every chunk is l + 1 bits, so that reader has already split the
whole body into fields with array operations, and the walk only takes them
in order.  At l = 1 a signed field's final payload bit is implied, so field
boundaries depend on field types; only there does the walk find where each
field ends.

The block partition is derived from the sample count and the block size,
which in turn derives from eps and the dataset constants; a container
therefore decodes correctly only with the constants it was encoded with.

``parse`` raises :class:`TruncationError` when the bits run out, including
when a segment declares more blocks than the remaining bits can hold, and
:class:`CorruptionError` for inconsistent content: a varint of more than
64 // l continuation chunks or of value 2**64 or more, a zero code in a
signed field, a block size or segment end index that overflows, a segment
whose start or end time is not a finite float, a broken retention budget or
a trailing zero coefficient, unread bytes or nonzero padding.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .codec import (
    VarintReader,
    enhanced_zigzag_map,
    pack_varints,
    round_half_away,
    varint_reader,
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
    # every field as one code, in container order; signed fields are
    # enhanced-zigzag mapped, and the positions of the others are recorded
    codes: list[int] = []
    unsigned_at: list[int] = []

    def unsigned(value: int) -> None:
        unsigned_at.append(len(codes))
        codes.append(value)

    def signed(values) -> None:
        codes.extend(map(enhanced_zigzag_map, values))

    unsigned(len(model.segments))
    unsigned(len(model.outliers))
    unsigned(len(model.corrections))

    prev_t = 0
    prev_coord = (0,) * model.dim
    for e in model.outliers:
        unsigned(e.t_index - prev_t)
        signed(c - p for c, p in zip(e.coord_q, prev_coord))
        prev_t, prev_coord = e.t_index, e.coord_q

    prev_t = 0
    for e in model.corrections:
        unsigned(e.t_index - prev_t)
        prev_t = e.t_index
        signed(e.delta_q)

    prev_end = 0
    for seg in model.segments:
        signed((seg.t0_index - prev_end, *seg.p0_q))
        prev_end = segment_end_index(seg.t0_index, seg.n_samples, model.dt, model.eps_t)
        unsigned(seg.n_samples)
        for per_dim in seg.blocks:
            for blk in per_dim:
                signed((blk.end_delta_q,))
                unsigned(blk.c_f)
                signed(blk.q_coeffs)

    is_signed = np.ones(len(codes), dtype=bool)
    is_signed[unsigned_at] = False
    return (MAGIC + bytes((VERSION, model.dim, 0, model.chunk_bits))  # flags reserved
            + struct.pack("<dddd", model.dt, model.eps, model.eps_t, model.eps_p)
            + pack_varints(codes, is_signed, model.chunk_bits))


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
    # a block stores at least a signed end delta and an unsigned count of one
    # chunk each; at l = 1 the end delta's final payload bit is implied
    min_block_bits = 2 * (l + 1) - (l == 1)

    r = varint_reader(data[_HEADER_LEN + 8 * _FLOAT_FIELDS:], l)
    unsigned, signed, signeds = r.unsigned, r.signed, r.signeds
    try:
        lay = Layout.derive(eps, eps_p, dim, profile)
        full_limit = lay.budget(lay.b_s) - 1
        n_segments = unsigned()
        n_outliers = unsigned()
        n_corrections = unsigned()

        outliers = []
        t_idx = 0
        coord = (0,) * dim
        for _ in range(n_outliers):
            t_idx += unsigned()
            coord = tuple([c + d for c, d in zip(coord, signeds(dim))])
            outliers.append(OutlierEntry(t_idx, coord))

        corrections = []
        t_idx = 0
        for _ in range(n_corrections):
            t_idx += unsigned()
            corrections.append(CorrectionEntry(t_idx, signeds(dim)))

        segments = []
        prev_end = 0
        for _ in range(n_segments):
            t0_index = prev_end + signed()
            p0_q = signeds(dim)
            n_samples = unsigned()
            if n_samples < 2:
                raise CorruptionError(f"segment sample count {n_samples} below 2")
            prev_end = segment_end_index(t0_index, n_samples, dt, eps_t)
            if not math.isfinite(max(-t0_index, prev_end) * eps_t):
                raise CorruptionError("segment time span out of range of float64")
            n_blocks = -(-(n_samples - 1) // lay.b_s)
            if dim * n_blocks * min_block_bits > r.remaining_bits:
                raise TruncationError(
                    f"segment declares {n_blocks} blocks per dimension, more than "
                    f"the {r.remaining_bits} remaining bits can hold"
                )
            # every block but the tail holds b_s velocities
            sizes = block_lengths(n_samples - 1, lay.b_s)
            limits = [full_limit] * (n_blocks - 1) + [lay.budget(sizes[-1]) - 1]
            per_dims = []
            for _ in range(dim):
                blks = []
                for m, limit in zip(sizes, limits):
                    end_delta = signed()
                    c_f = unsigned()
                    if c_f > limit:
                        raise CorruptionError(
                            f"block declares {c_f} coefficients, the retention "
                            f"budget for {m} velocities is {limit}"
                        )
                    coeffs = signeds(c_f)
                    if c_f and coeffs[-1] == 0:
                        raise CorruptionError("block ends in a zero coefficient")
                    blks.append(EncodedBlock(coeffs, end_delta))
                per_dims.append(tuple(blks))
            segments.append(
                SubTrajectorySegment(t0_index, p0_q, n_samples, tuple(per_dims))
            )
    except ValueError as exc:  # signed decode of a zero code, bad counts, ...
        raise CorruptionError(str(exc)) from exc
    except OverflowError as exc:  # b * eps + c or (n - 1) * dt / eps_t is inf
        raise CorruptionError(f"block size or segment end out of range: {exc}") from exc

    if r.remaining_bits >= 8:
        raise CorruptionError(f"{r.remaining_bits} unread bits after the payload")
    if data[-1] & ((1 << r.remaining_bits) - 1):
        raise CorruptionError("nonzero padding bits at end of container")

    return CompressedTrajectory(
        dim=dim, dt=dt, eps=eps, eps_t=eps_t, eps_p=eps_p, chunk_bits=l,
        segments=tuple(segments), outliers=tuple(outliers),
        corrections=tuple(corrections),
    )


def pack_archive(containers: list[bytes]) -> bytes:
    """Concatenate containers, each prefixed with its varint byte length."""
    out = bytearray()
    for payload in containers:
        out += pack_varints([len(payload)], [False], _ARCHIVE_CHUNK_BITS)
        out += payload
    return bytes(out)


def unpack_archive(data: bytes) -> list[bytes]:
    out = []
    off = 0
    while off < len(data):
        # a prefix is at most 64 // 7 continuation bytes and a final one
        prefix = VarintReader(data[off:off + 64 // _ARCHIVE_CHUNK_BITS + 1],
                              _ARCHIVE_CHUNK_BITS)
        length = prefix.unsigned()
        off += prefix.pos // 8
        if off + length > len(data):
            raise TruncationError(
                f"archive entry claims {length} bytes, {len(data) - off} remain"
            )
        out.append(data[off:off + length])
        off += length
    return out
