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
flattens the model into one list of field values, maps the signed ones to
their codes in one array operation and writes the codes with a single
:func:`~pilotc.codec.pack_varints` call; ``parse`` walks the same field
order through the reader :func:`~pilotc.codec.varint_reader` picks.  That
reader decodes with array operations, so the walk only looks fields up: at
l >= 2 every chunk is l + 1 bits, and the reader has already split the
whole body into fields; at l = 1 a signed field's final payload bit is
implied, so a field's length depends on its type, and the reader has
tabulated the field of either type that starts at each bit position.

Both directions apply one set of rules, each a function below that raises
``ValueError``; ``parse`` turns a broken rule into :class:`CorruptionError`:

- header: dimension 1..255, chunk length 1..32, and dt, eps, eps_t and
  eps_p positive and finite;
- entry order: the first outlier or correction time index is >= 0, and
  later ones strictly increase; time indices and outlier coordinates fit
  int64;
- signed field: each enhanced-zigzag field lies within +-(2**63 - 1), so
  its code is below 2**64; ``serialize`` checks it where it maps the
  fields, and ``parse`` meets it by construction;
- segment: 2 to 2**63 - 1 samples, start and end times finite in float64,
  and a start index above the previous segment's (grid spans may overlap);
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


def _check_entries_fit(label: str, entries) -> None:
    """Entry order, on a whole list once its steps are checked: the last
    time index, the largest, and every outlier coordinate fit int64.  (A
    correction value is one signed field, which cannot leave int64.)"""
    coords = [v for _, values in entries for v in values] if label == "outlier" else ()
    if (entries and entries[-1][0] >= 2**63
            or min(coords, default=0) < -2**63 or max(coords, default=0) >= 2**63):
        raise ValueError(f"{label}s: a time index or coordinate outside int64")


def segment_end_index(t0_index: int, n_samples: int, dt: float, eps_t: float) -> int:
    """The segment rule; returns the segment's grid-end time index, which
    both codec sides compute alike."""
    if not 2 <= n_samples < 2**63:
        raise ValueError(f"segment sample count {n_samples} outside 2..2**63 - 1")
    span = (n_samples - 1) * dt / eps_t
    if math.isfinite(span):
        end = t0_index + round_half_away(span)
        if math.isfinite(max(-t0_index, end) * eps_t):
            return end
    raise ValueError("segment time span out of range of float64")


def _check_segment_order(t0_index: int, prev_t0_index: float) -> None:
    """Second half of the segment rule; ``prev_t0_index`` is the previous
    segment's start index, -inf before the first segment."""
    if t0_index <= prev_t0_index:
        raise ValueError(f"segment starts at time index {t0_index}, not after the "
                         f"previous segment's start {prev_t0_index}")


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
    # every field in container order, 0 standing in for an unsigned one,
    # whose position and value are recorded apart
    fields: list[int] = []
    unsigned_at: list[int] = []
    unsigned_values: list[int] = []

    def unsigned(value: int) -> None:
        unsigned_at.append(len(fields))
        unsigned_values.append(value)
        fields.append(0)

    signed = fields.extend

    def width(values, what: str, i: int):
        if len(values) != dim:
            raise ValueError(f"{what} {i} has {len(values)} values for {dim} dimensions")
        return values

    unsigned(len(model.segments))
    unsigned(len(model.outliers))
    unsigned(len(model.corrections))

    for label, entries in (("outlier", model.outliers), ("correction", model.corrections)):
        prev_t, prev = 0, (0,) * dim
        for i, (t_index, values) in enumerate(entries):
            step = t_index - prev_t
            _check_time_step(label, i, step)
            unsigned(step)
            signed(v - p for v, p in zip(width(values, label, i), prev))
            prev_t = t_index
            if label == "outlier":  # only outlier values chain
                prev = values
        _check_entries_fit(label, entries)

    prev_end, prev_t0 = 0, -math.inf
    for si, (t0_index, p0_q, n_samples, blocks) in enumerate(model.segments):
        _check_segment_order(t0_index, prev_t0)
        prev_t0 = t0_index
        signed((t0_index - prev_end, *width(p0_q, "start of segment", si)))
        prev_end = segment_end_index(t0_index, n_samples, model.dt, model.eps_t)
        unsigned(n_samples)
        n_full, tail = lay.partition(n_samples - 1)
        tail_limit = lay.budget(tail) - 1
        for per_dim in width(blocks, "block list of segment", si):
            if len(per_dim) != n_full + 1:
                raise ValueError(f"segment {si} has {len(per_dim)} blocks in a dimension, "
                                 f"expected {n_full + 1} for {n_samples} samples")
            for b, (coeffs, end_delta) in enumerate(per_dim):
                _check_coeff_count(len(coeffs), full_limit if b < n_full else tail_limit)
                _check_last_coeff(coeffs)
                signed((end_delta,))
                unsigned(len(coeffs))
                signed(coeffs)

    # one array operation maps the signed fields and applies their rule
    try:
        codes = enhanced_zigzag_map(fields)
    except OverflowError:
        raise ValueError("a signed field outside +-(2**63 - 1)") from None
    codes[unsigned_at] = unsigned_values
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

        entry_lists = []
        for label, entry, count in (("outlier", OutlierEntry, n_outliers),
                                    ("correction", CorrectionEntry, n_corrections)):
            entries = []
            t_idx, prev = 0, (0,) * dim
            for i in range(count):
                step = unsigned()
                _check_time_step(label, i, step)
                t_idx += step
                values = signeds(dim)
                if label == "outlier":  # only outlier values chain
                    values = prev = tuple([p + v for p, v in zip(prev, values)])
                entries.append(entry(t_idx, values))
            _check_entries_fit(label, entries)
            entry_lists.append(tuple(entries))
        outliers, corrections = entry_lists

        segments = []
        prev_end, prev_t0 = 0, -math.inf
        for _ in range(n_segments):
            t0_index = prev_end + signed()
            _check_segment_order(t0_index, prev_t0)
            prev_t0 = t0_index
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
    except OverflowError as exc:  # a segment end index beyond float64
        raise CorruptionError(f"segment end out of range: {exc}") from exc

    if r.remaining_bits >= 8:
        raise CorruptionError(f"{r.remaining_bits} unread bits after the payload")
    if data[-1] & ((1 << r.remaining_bits) - 1):
        raise CorruptionError("nonzero padding bits at end of container")

    return CompressedTrajectory(
        dim=dim, dt=dt, eps=eps, eps_t=eps_t, eps_p=eps_p, chunk_bits=l,
        segments=tuple(segments), outliers=outliers, corrections=corrections,
    )
