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

Both directions apply one set of rules, each a function below that raises
``ValueError``; ``parse`` turns a broken rule into :class:`CorruptionError`:

- header: dimension 1..255, chunk length 1..32, and dt, eps, eps_t and
  eps_p positive and finite;
- entry order: the first outlier or correction time index is >= 0, and
  later ones strictly increase;
- segment: at least 2 samples, and start and end times finite in float64;
- block: at most K(m) - 1 coefficients for m velocities, no trailing zero.

A segment's blocks per dimension are :meth:`~pilotc.params.Layout.partition`
of its velocities, and the block size derives from eps and the dataset
constants, so a container decodes only with the constants it was encoded
with.  ``parse`` raises :class:`TruncationError` when the bits run out or a
segment declares more blocks than they can hold, and :class:`CorruptionError`
for a bad varint, a zero signed code, an overflowing block size or segment
end, and unread bytes or nonzero padding.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .codec import enhanced_zigzag_map, pack_varints, round_half_away, varint_reader
from .errors import CorruptionError, FormatError, TruncationError
from .model import (
    CompressedTrajectory,
    CorrectionEntry,
    EncodedBlock,
    OutlierEntry,
    SubTrajectorySegment,
)
from .params import DEFAULT_PROFILE, Layout

MAGIC = b"PLTC"
VERSION = 1
_HEADER_LEN = 8
_FLOAT_FIELDS = 4


# ---------------------------------------------------------------------------
# the container rules
# ---------------------------------------------------------------------------

def _check_header(dim: int, chunk_bits: int, dt: float, eps: float, eps_t: float,
                  eps_p: float) -> None:
    if not 1 <= dim <= 255:
        raise ValueError(f"dimension must be in 1..255, got {dim}")
    if not 1 <= chunk_bits <= 32:
        raise ValueError(f"chunk length must be in 1..32, got {chunk_bits}")
    for name, v in (("dt", dt), ("eps", eps), ("eps_t", eps_t), ("eps_p", eps_p)):
        if not (v > 0.0 and math.isfinite(v)):
            raise ValueError(f"{name} must be positive and finite, got {v}")


def _check_time_step(label: str, i: int, step: int) -> None:
    """Entry order, on entry i's step from the previous time index (from 0
    for the first entry)."""
    if step < (i > 0):
        raise ValueError(f"{label} {i}: time indices must be non-negative and "
                         f"strictly increasing, got a step of {step}")


def segment_end_index(t0_index: int, n_samples: int, dt: float, eps_t: float) -> int:
    """The segment rule; returns the segment's grid-end time index, which
    both codec sides compute alike."""
    if n_samples < 2:
        raise ValueError(f"segment sample count {n_samples} below 2")
    span = (n_samples - 1) * dt / eps_t
    if math.isfinite(span):
        end = t0_index + round_half_away(span)
        if math.isfinite(max(-t0_index, end) * eps_t):
            return end
    raise ValueError("segment time span out of range of float64")


def _check_coeff_count(c_f: int, limit: int) -> None:
    """First half of the block rule; ``limit`` is K(m) - 1."""
    if c_f > limit:
        raise ValueError(f"block declares {c_f} coefficients, over its retention "
                         f"budget of {limit}")


def _check_last_coeff(coeffs: tuple[int, ...]) -> None:
    """Second half of the block rule, checked once the coefficients are read."""
    if coeffs and coeffs[-1] == 0:
        raise ValueError("block ends in a zero coefficient")


def serialize(model: CompressedTrajectory, profile=DEFAULT_PROFILE) -> bytes:
    """Serialize a model; ``profile`` supplies the dataset constants a, b, c, d."""
    dim = model.dim
    _check_header(dim, model.chunk_bits, model.dt, model.eps, model.eps_t, model.eps_p)
    lay = Layout.derive(model.eps, model.eps_p, dim, profile)
    full_limit = lay.budget(lay.b_s) - 1
    # every field as one code, in container order; signed fields are
    # enhanced-zigzag mapped, and the positions of the others are recorded
    codes: list[int] = []
    unsigned_at: list[int] = []

    def unsigned(value: int) -> None:
        unsigned_at.append(len(codes))
        codes.append(value)

    def signed(values) -> None:
        codes.extend(map(enhanced_zigzag_map, values))

    def width(values, what: str, i: int):
        if len(values) != dim:
            raise ValueError(f"{what} {i} has {len(values)} values for {dim} dimensions")
        return values

    unsigned(len(model.segments))
    unsigned(len(model.outliers))
    unsigned(len(model.corrections))

    prev_t = 0
    prev_coord = (0,) * dim
    for i, e in enumerate(model.outliers):
        step = e.t_index - prev_t
        _check_time_step("outlier", i, step)
        unsigned(step)
        signed(c - p for c, p in zip(width(e.coord_q, "outlier", i), prev_coord))
        prev_t, prev_coord = e.t_index, e.coord_q

    prev_t = 0
    for i, e in enumerate(model.corrections):
        step = e.t_index - prev_t
        _check_time_step("correction", i, step)
        unsigned(step)
        prev_t = e.t_index
        signed(width(e.delta_q, "correction", i))

    prev_end = 0
    for si, seg in enumerate(model.segments):
        signed((seg.t0_index - prev_end, *width(seg.p0_q, "start of segment", si)))
        prev_end = segment_end_index(seg.t0_index, seg.n_samples, model.dt, model.eps_t)
        unsigned(seg.n_samples)
        n_full, tail = lay.partition(seg.n_samples - 1)
        tail_limit = lay.budget(tail) - 1
        for per_dim in width(seg.blocks, "block list of segment", si):
            if len(per_dim) != n_full + 1:
                raise ValueError(f"segment {si} has {len(per_dim)} blocks in a dimension, "
                                 f"expected {n_full + 1} for {seg.n_samples} samples")
            for b, blk in enumerate(per_dim):
                coeffs = blk.q_coeffs
                _check_coeff_count(len(coeffs), full_limit if b < n_full else tail_limit)
                _check_last_coeff(coeffs)
                signed((blk.end_delta_q,))
                unsigned(len(coeffs))
                signed(coeffs)

    is_signed = np.ones(len(codes), dtype=bool)
    is_signed[unsigned_at] = False
    return (MAGIC + bytes((VERSION, dim, 0, model.chunk_bits))  # flags reserved
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
    dt, eps, eps_t, eps_p = struct.unpack_from("<dddd", data, _HEADER_LEN)
    # a block stores at least a signed end delta and an unsigned count of one
    # chunk each; at l = 1 the end delta's final payload bit is implied
    min_block_bits = 2 * (l + 1) - (l == 1)

    try:
        _check_header(dim, l, dt, eps, eps_t, eps_p)
        r = varint_reader(data[_HEADER_LEN + 8 * _FLOAT_FIELDS:], l)
        unsigned, signed, signeds = r.unsigned, r.signed, r.signeds
        lay = Layout.derive(eps, eps_p, dim, profile)
        full_limit = lay.budget(lay.b_s) - 1
        n_segments = unsigned()
        n_outliers = unsigned()
        n_corrections = unsigned()

        outliers = []
        t_idx = 0
        coord = (0,) * dim
        for i in range(n_outliers):
            step = unsigned()
            _check_time_step("outlier", i, step)
            t_idx += step
            coord = tuple([c + d for c, d in zip(coord, signeds(dim))])
            outliers.append(OutlierEntry(t_idx, coord))

        corrections = []
        t_idx = 0
        for i in range(n_corrections):
            step = unsigned()
            _check_time_step("correction", i, step)
            t_idx += step
            corrections.append(CorrectionEntry(t_idx, signeds(dim)))

        segments = []
        prev_end = 0
        for _ in range(n_segments):
            t0_index = prev_end + signed()
            p0_q = signeds(dim)
            n_samples = unsigned()
            prev_end = segment_end_index(t0_index, n_samples, dt, eps_t)
            n_full, tail = lay.partition(n_samples - 1)
            if dim * (n_full + 1) * min_block_bits > r.remaining_bits:
                raise TruncationError(
                    f"segment declares {n_full + 1} blocks per dimension, more than "
                    f"the {r.remaining_bits} remaining bits can hold"
                )
            tail_limit = lay.budget(tail) - 1
            per_dims = []
            for _ in range(dim):
                blks = []
                for b in range(n_full + 1):
                    end_delta = signed()
                    c_f = unsigned()
                    _check_coeff_count(c_f, full_limit if b < n_full else tail_limit)
                    coeffs = signeds(c_f)
                    _check_last_coeff(coeffs)
                    blks.append(EncodedBlock(coeffs, end_delta))
                per_dims.append(tuple(blks))
            segments.append(
                SubTrajectorySegment(t0_index, p0_q, n_samples, tuple(per_dims))
            )
    except ValueError as exc:  # a broken rule, or a signed decode of a zero code
        raise CorruptionError(str(exc)) from exc
    except OverflowError as exc:  # b * eps + c is inf, or a huge index
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
