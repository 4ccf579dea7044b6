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
the body is one flat run of chunked varints (see ``codec``).  The blocks
travel as int64 columns, one store per model (see ``model``), which
:func:`block_columns` hands to both ``serialize`` and the decoder together
with the :class:`~pilotc.blocks.BlockPlan` that lays its blocks out.
``serialize`` lays the fields out with array operations: each block's
first field sits at a running sum of the fields before it, end delta,
count and coefficients, with each segment's head in front of its first
block; it then maps the signed fields to their codes in one array
operation and writes every code with a single
:func:`~pilotc.codec.pack_varints` call.  ``parse`` reads through the
reader :func:`~pilotc.codec.varint_reader` picks, which decodes with array
operations.  At l >= 2 every chunk is l + 1 bits, so the reader has split
the whole body into fields, and ``parse`` chases the blocks: a block at
field i holds its coefficient count c at i + 1, so the next block starts
at field i + 2 + c.  The chase visits two fields per block, and array
operations then gather the columns and check them.  At l = 1 a signed
field's final payload bit is implied, so a field's length depends on its
type; the reader has tabulated the field of either type that starts at
each bit position, and ``parse`` walks the blocks field by field into the
columns.  Any failure of the chase sends ``parse`` back to that walk,
which raises the error of the first field or rule that fails.

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
- block: at most K(m) - 1 coefficients for m velocities, no trailing zero;
  one array function checks every block of a model at once, in ``parse``
  and in :func:`block_columns` (unless a store keeps the plan of the same
  layout, segment lengths and dimension that it was checked under).

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

from .blocks import BlockPlan, flat_ranges
from .codec import (
    ColumnarReader,
    enhanced_zigzag_map,
    pack_varints,
    round_half_away,
    varint_reader,
)
from .errors import CorruptionError, FormatError, PilotCError, TruncationError
from .model import (
    BlockColumns,
    BlockList,
    CompressedTrajectory,
    CorrectionEntry,
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
    try:  # an infinite span, or an end index beyond float64, overflows
        end = t0_index + round_half_away((n_samples - 1) * dt / eps_t)
        if math.isfinite(max(-t0_index, end) * eps_t):
            return end
    except OverflowError:
        pass
    raise ValueError("segment time span out of range of float64")


def _check_segment_order(t0_index: int, prev_t0_index: float) -> None:
    """Second half of the segment rule; ``prev_t0_index`` is the previous
    segment's start index, -inf before the first segment."""
    if t0_index <= prev_t0_index:
        raise ValueError(f"segment starts at time index {t0_index}, not after the "
                         f"previous segment's start {prev_t0_index}")


def _check_blocks(c_f, coeffs, limit) -> None:
    """The block rule, on every block at once: block i holds at most
    ``limit[i]`` = K(m) - 1 coefficients for its m velocities, and the last
    of them is not zero.  ``c_f`` holds the blocks' coefficient counts and
    ``coeffs`` their coefficients one block after the other; a block whose
    coefficients run past the end of ``coeffs`` is checked for its count
    only."""
    c_f = np.asarray(c_f)
    over = c_f > limit
    if over.any():
        i = int(over.argmax())
        raise ValueError(f"block declares {c_f[i]} coefficients, over its retention "
                         f"budget of {int(limit[i])}")
    last = c_f.cumsum()[c_f > 0] - 1  # each nonempty block's last coefficient
    if last.size and last[-1] >= len(coeffs):  # only the last block can be unread
        last = last[:-1]
    if last.size and (np.asarray(coeffs)[last] == 0).any():
        raise ValueError("block ends in a zero coefficient")


def block_columns(segments, dim: int, lay: Layout) -> tuple[BlockColumns, BlockPlan]:
    """The block columns of ``segments`` and the plan that lays them out
    under ``lay``, once their shape and the block rule are checked: the
    store that their block views share when the library built them,
    otherwise columns built from their blocks; and the store's own plan
    when its key is ``lay``, the segments' sample counts and ``dim``,
    otherwise a new one.  Raises ``ValueError`` for a broken rule, and
    ``OverflowError`` for a value outside int64."""
    for si, seg in enumerate(segments):
        if len(seg.blocks) != dim:
            raise ValueError(f"block list of segment {si} has {len(seg.blocks)} values "
                             f"for {dim} dimensions")
    chains = [c for seg in segments for c in seg.blocks]
    n_samples = [seg.n_samples for seg in segments]
    cols = getattr(chains[0], "store", None) if chains else None
    at = 0
    for c in chains:  # the views must tile one store in container order
        if not (isinstance(c, BlockList) and c.store is cols and c.lo == at):
            cols = None
            break
        at = c.hi
    plan = getattr(cols, "plan", None)
    if plan is None or (plan.lay, plan.n_samples, plan.dim) != (lay, n_samples, dim):
        plan = BlockPlan(n_samples, dim, lay)
    for i, (have, want) in enumerate(zip(map(len, chains), plan.per_chain.tolist())):
        if have != want:
            raise ValueError(f"segment {i // dim} has {have} blocks in a dimension, expected "
                             f"{want} for {n_samples[i // dim]} samples")
    if cols is None or at != cols.c_f.size:
        blocks = [blk for c in chains for blk in c]
        cols = BlockColumns([len(q) for q, _ in blocks], [d for _, d in blocks],
                            [v for q, _ in blocks for v in q])
    if cols.plan is not plan:
        _check_blocks(cols.c_f, cols.coeffs, plan.limit)
    return cols, plan


def serialize(model: CompressedTrajectory, profile=DEFAULT_PROFILE) -> bytes:
    """Serialize a model; ``profile`` supplies the dataset constants a, b, c, d."""
    dim = model.dim
    _check_header(dim, model.chunk_bits, model.dt, model.eps, model.eps_t, model.eps_p)
    lay = Layout.derive(model.eps, model.eps_p, dim, profile)
    # the fields before the blocks in container order, every segment head
    # at the end, and where the unsigned ones are
    fields = [len(model.segments), len(model.outliers), len(model.corrections)]
    unsigned_at = [0, 1, 2]

    def width(values, what: str, i: int):
        if len(values) != dim:
            raise ValueError(f"{what} {i} has {len(values)} values for {dim} dimensions")
        return values

    for label, entries in (("outlier", model.outliers), ("correction", model.corrections)):
        prev_t, prev = 0, (0,) * dim
        for i, (t_index, values) in enumerate(entries):
            step = t_index - prev_t
            _check_time_step(label, i, step)
            unsigned_at.append(len(fields))
            fields.append(step)
            fields.extend(v - p for v, p in zip(width(values, label, i), prev))
            prev_t = t_index
            if label == "outlier":  # only outlier values chain
                prev = values
        _check_entries_fit(label, entries)

    n_before = len(fields)
    prev_end, prev_t0 = 0, -math.inf
    for si, (t0_index, p0_q, n_samples, _) in enumerate(model.segments):
        _check_segment_order(t0_index, prev_t0)
        prev_t0 = t0_index
        fields.append(t0_index - prev_end)
        fields.extend(width(p0_q, "start of segment", si))
        fields.append(n_samples)
        prev_end = segment_end_index(t0_index, n_samples, model.dt, model.eps_t)

    try:
        fields = np.array(fields, dtype=np.int64)
        # each segment's head goes in front of its first block
        cols, plan = block_columns(model.segments, dim, lay)
        first = plan.chain_start[::dim]
        size = 2 + cols.c_f  # fields per block: end delta, count, coefficients
        size[first] += dim + 2
        at = n_before + size.cumsum() - size  # each block's first field
        body = np.empty(n_before + int(size.sum()), dtype=np.int64)
        body[:n_before] = fields[:n_before]
        body[at[first, None] + np.arange(dim + 2)] = fields[n_before:].reshape(-1, dim + 2)
        unsigned_at += (at[first] + dim + 1).tolist()
        at[first] += dim + 2
        body[at] = cols.end_delta
        body[at + 1] = cols.c_f
        body[flat_ranges(at + 2, cols.c_f)] = cols.coeffs
        # one array operation maps the signed fields and applies their rule
        codes = enhanced_zigzag_map(body)
    except OverflowError:
        raise ValueError("a signed field outside +-(2**63 - 1)") from None
    is_signed = np.ones(body.size, dtype=bool)
    is_signed[unsigned_at] = False
    is_signed[at + 1] = False
    codes[~is_signed] = body[~is_signed]
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
        unsigned, signeds = r.unsigned, r.signeds
        lay = Layout.derive(eps, eps_p, dim, profile)
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

        args = (r, n_segments, dim, dt, eps_t, lay, min_block_bits)
        if isinstance(r, ColumnarReader):
            start = r.index
            try:
                segments = _read_segments(*args, chase=True)
            except (PilotCError, ValueError, ArithmeticError, LookupError, TypeError):
                r.index = start  # a walk raises the first error in field order
                segments = _read_segments(*args, chase=False)
        else:
            segments = _read_segments(*args, chase=False)
    except ValueError as exc:  # a broken rule, or a signed decode of a zero code
        raise CorruptionError(str(exc)) from exc

    if r.remaining_bits >= 8:
        raise CorruptionError(f"{r.remaining_bits} unread bits after the payload")
    if data[-1] & ((1 << r.remaining_bits) - 1):
        raise CorruptionError("nonzero padding bits at end of container")

    return CompressedTrajectory(
        dim=dim, dt=dt, eps=eps, eps_t=eps_t, eps_p=eps_p, chunk_bits=l,
        segments=segments, outliers=outliers, corrections=corrections,
    )


def _read_segments(r, count: int, dim: int, dt: float, eps_t: float, lay: Layout,
                   min_block_bits: int, chase: bool) -> tuple[SubTrajectorySegment, ...]:
    """Read ``count`` segments through the reader ``r``, their blocks into
    one :class:`~pilotc.model.BlockColumns` store.

    A walk reads every block field by field, and raises the error of the
    first field or rule that fails.  A chase needs a
    :class:`~pilotc.codec.ColumnarReader`: a block at field i holds its
    coefficient count c at i + 1, so the next block starts at i + 2 + c; the
    chase finds each block's start so, and then gathers the columns with
    array operations.  It raises an error wherever a walk would, but not
    always the same one."""
    heads = []
    deltas, counts, coeffs, starts = [], [], [], []
    signed, unsigned, signeds = r.signed, r.unsigned, r.signeds
    prev_end, prev_t0 = 0, -math.inf
    try:
        for _ in range(count):
            t0_index = prev_end + signed()
            _check_segment_order(t0_index, prev_t0)
            prev_t0 = t0_index
            p0_q = signeds(dim)
            n_samples = unsigned()
            prev_end = segment_end_index(t0_index, n_samples, dt, eps_t)
            per_dim = lay.partition(n_samples - 1)[0] + 1  # blocks per dimension
            if dim * per_dim * min_block_bits > r.remaining_bits:
                raise TruncationError(
                    f"segment declares {per_dim} blocks per dimension, more than "
                    f"the {r.remaining_bits} remaining bits can hold"
                )
            heads.append((t0_index, p0_q, n_samples))
            if chase:
                codes, i = r.codes, r.index
                for _ in range(dim * per_dim):
                    c = codes[i + 1]
                    starts.append(i)
                    counts.append(c)
                    i += c + 2
                r.index = i
            else:
                for _ in range(dim * per_dim):
                    deltas.append(signed())
                    counts.append(unsigned())
                    coeffs += signeds(counts[-1])
    except (PilotCError, ValueError):
        if not chase:  # a broken block rule read before comes first
            plan = BlockPlan([n for _, _, n in heads], dim, lay)
            _check_blocks(counts, coeffs, plan.limit[:len(counts)])
        raise
    if chase:
        at = np.array(starts, dtype=np.int64)
        counts = np.array(counts, dtype=np.int64)
        deltas, coeffs = r.signed_values(at), r.signed_values(flat_ranges(at + 2, counts))
    plan = BlockPlan([n for _, _, n in heads], dim, lay)
    cols = BlockColumns(counts, deltas, coeffs, plan)
    _check_blocks(cols.c_f, cols.coeffs, plan.limit)
    return cols.segments(heads)
