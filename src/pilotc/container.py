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
the body is one flat run of chunked varints (see ``codec``).  A model's
records travel as int64 columns (see ``model``): one conversion function
per record kind, :func:`entry_columns` for outliers and corrections,
:func:`segment_heads` for segment heads and :func:`block_columns` for
blocks, hands them to both ``serialize`` and the decoder, from a model the
library built or from records built by hand alike.  ``serialize`` lays the
fields out with array operations: entry time steps and outlier steps come
from differences of the columns, each block's first field sits at a
running sum of the fields before it, end delta, count and coefficients,
with each segment's head in front of its first block; it then maps the
signed fields to their codes in one array operation and writes every code
with a single :func:`~pilotc.codec.pack_varints` call.  ``parse`` reads
through the reader :func:`~pilotc.codec.varint_reader` picks, which
decodes with array operations.  At l >= 2 every chunk is l + 1 bits, so
the reader has split the whole body into fields, and ``parse`` reads the
counts, the entries and the segment heads from their codes: the entries
are 1 + dim fields each, so array operations gather and check them, and a
chase finds the heads and blocks: a block at field i holds its
coefficient count c at i + 1, so the next block starts at i + 2 + c.  The
chase visits two fields per block and two per head, and array
operations then gather the columns and check them.  At l = 1 a signed
field's final payload bit is implied, so a field's length depends on its
type; the reader has tabulated the field of either type that starts at
each bit position, and ``parse`` walks the body field by field into lists
that become the columns.  Any failure of the chase sends ``parse`` back to
that walk, which raises the error of the first field or rule that fails.

Both directions apply one set of rules, each a function below that raises
``ValueError``; ``parse`` turns a broken rule into :class:`CorruptionError`:

- header: dimension 1..255, chunk length 1..32, and dt, eps, eps_t and
  eps_p positive and finite;
- entry order: every outlier or correction holds dim values, the first
  time index is >= 0, and later ones strictly increase; time indices and
  outlier coordinates fit int64 (:func:`entry_columns`, and ``parse``);
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
    EntryList,
    OutlierEntry,
    SegmentList,
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


def _entry_arrays(label: str, t_index, values, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Entry fit: time indices and values as int64 columns, the values of
    shape (entries, dim); raises ``ValueError`` for one outside int64."""
    try:
        return (np.array(t_index, dtype=np.int64),
                np.array(values, dtype=np.int64).reshape(len(t_index), dim))
    except OverflowError:
        raise ValueError(f"{label}s: a time index or value outside int64") from None


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


def entry_columns(entries, dim: int, label: str) -> tuple[np.ndarray, np.ndarray]:
    """The time indices, int64, and values, int64 of shape (entries, dim),
    of the outliers or corrections ``entries`` (``label`` names which): the
    columns of an :class:`~pilotc.model.EntryList`, or columns built from
    records, once the entry rules hold: ``dim`` values per entry, time
    indices from 0 up that strictly increase, and both within int64.
    Raises ``ValueError`` for a broken rule."""
    if isinstance(entries, EntryList):
        t_index, values = entries.t_index, entries.values
        if values.shape[1:] != (dim,):
            raise ValueError(f"{label}s have {values.shape[1:]} values for {dim} dimensions")
    else:
        for i, (_, v) in enumerate(entries):
            if len(v) != dim:
                raise ValueError(f"{label} {i} has {len(v)} values for {dim} dimensions")
        t_index, values = _entry_arrays(label, [t for t, _ in entries],
                                        [v for _, v in entries], dim)
    if t_index.size and (t_index[0] < 0 or (t_index[1:] <= t_index[:-1]).any()):
        steps = np.diff(t_index, prepend=0)
        i = int(np.flatnonzero(steps < (np.arange(steps.size) > 0))[0])
        _check_time_step(label, i, int(steps[i]))
    return t_index, values


def segment_heads(segments, dim: int) -> tuple[list, np.ndarray, list]:
    """The start time indices (ints), start values (int64 of shape
    (segments, dim)) and sample counts of ``segments``: the columns of a
    :class:`~pilotc.model.SegmentList`, or columns built from records once
    the segments start in order and every start holds ``dim`` values within
    int64 (:func:`block_columns` checks a view's width).  Raises
    ``ValueError`` for a broken rule."""
    if isinstance(segments, SegmentList):
        return segments.t0_index, segments.p0_q, segments.store.plan.n_samples
    prev_t0 = -math.inf
    for si, seg in enumerate(segments):
        _check_segment_order(seg.t0_index, prev_t0)
        prev_t0 = seg.t0_index
        if len(seg.p0_q) != dim:
            raise ValueError(f"start of segment {si} has {len(seg.p0_q)} values "
                             f"for {dim} dimensions")
    try:
        p0_q = np.array([seg.p0_q for seg in segments], dtype=np.int64).reshape(-1, dim)
    except OverflowError:
        raise ValueError("a segment start value outside int64") from None
    return [seg.t0_index for seg in segments], p0_q, [seg.n_samples for seg in segments]


def block_columns(segments, dim: int, lay: Layout) -> tuple[BlockColumns, BlockPlan]:
    """The block columns of ``segments`` and the plan that lays them out
    under ``lay``, once their shape and the block rule are checked: the
    store that their block views share when the library built them,
    otherwise columns built from their blocks; and the store's own plan
    when its key is ``lay``, the segments' sample counts and ``dim``,
    otherwise a new one.  Raises ``ValueError`` for a broken rule, and
    ``OverflowError`` for a value outside int64."""
    if isinstance(segments, SegmentList):
        plan = segments.store.plan
        if (plan.lay, plan.dim) == (lay, dim):
            return segments.store, plan
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
    out_t, out_v = entry_columns(model.outliers, dim, "outlier")
    cor_t, cor_v = entry_columns(model.corrections, dim, "correction")
    t0_index, p0_q, n_samples = segment_heads(model.segments, dim)
    t0_delta, prev_end = [], 0
    for t0, n in zip(t0_index, n_samples):
        t0_delta.append(t0 - prev_end)
        prev_end = segment_end_index(t0, n, model.dt, model.eps_t)

    try:
        cols, plan = block_columns(model.segments, dim, lay)
        n_out = out_t.size
        n_before = 3 + (n_out + cor_t.size) * (dim + 1)  # the counts and the entries
        heads = np.empty((len(t0_index), dim + 2), dtype=np.int64)
        heads[:, 0] = t0_delta
        heads[:, 1:-1] = p0_q
        heads[:, -1] = n_samples
        # each segment's head goes in front of its first block
        first = plan.chain_start[::dim]
        size = 2 + cols.c_f  # fields per block: end delta, count, coefficients
        size[first] += dim + 2
        at = n_before + size.cumsum() - size  # each block's first field
        body = np.empty(n_before + int(size.sum()), dtype=np.int64)
        body[:3] = len(t0_index), n_out, cor_t.size
        # per entry a time step and its values; outlier values travel as
        # steps along their chain, which must not wrap
        entries = body[3:n_before].reshape(-1, dim + 1)
        entries[:n_out, 0], entries[n_out:, 0] = out_t, cor_t
        entries[:n_out, 1:], entries[n_out:, 1:] = out_v, cor_v
        entries[1:n_out, 0] -= out_t[:-1]
        entries[n_out + 1:, 0] -= cor_t[:-1]
        steps = entries[1:n_out, 1:]
        steps -= out_v[:-1]
        if (((out_v[1:] ^ out_v[:-1]) & (out_v[1:] ^ steps)) < 0).any():
            raise OverflowError("an outlier step beyond int64")
        body[at[first, None] + np.arange(dim + 2)] = heads
        at[first] += dim + 2
        body[at] = cols.end_delta
        body[at + 1] = cols.c_f
        body[flat_ranges(at + 2, cols.c_f)] = cols.coeffs
        # one array operation maps the signed fields and applies their rule
        codes = enhanced_zigzag_map(body)
    except OverflowError:
        raise ValueError("a signed field outside +-(2**63 - 1)") from None
    is_signed = np.ones(body.size, dtype=bool)
    is_signed[:3] = False  # the counts
    is_signed[3:n_before:dim + 1] = False  # entry time steps
    is_signed[at[first] - 1] = False  # sample counts
    is_signed[at + 1] = False  # coefficient counts
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
        lay = Layout.derive(eps, eps_p, dim, profile)
        body = None
        if isinstance(r, ColumnarReader):
            try:
                body = _chase(r, dim, dt, eps_t, lay)
            except (PilotCError, ValueError, ArithmeticError, LookupError, TypeError):
                r.index = 0  # a walk raises the first error in field order
        if body is None:
            body = _walk(r, dim, dt, eps_t, lay, min_block_bits)
        segments, outliers, corrections = body
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


def _chase(r: ColumnarReader, dim: int, dt: float, eps_t: float, lay: Layout):
    """The segments, outliers and corrections of the body that the columnar
    reader ``r`` holds, read from its field codes: array operations gather
    the entries at their fixed fields, and a chase finds each segment head
    and block.  It raises wherever a walk would, though not always the same
    error, and also on entry sums near the edge of int64, which only the
    walk's Python ints tell apart."""
    codes = r.codes
    n_segments, n_outliers, n_corrections = codes[:3]
    n_entries = n_outliers + n_corrections
    i = 3 + n_entries * (dim + 1)  # the first segment's first field
    if i >= len(codes):
        raise LookupError("the entries run past the fields")
    rows = np.arange(3, i, dim + 1)
    steps = r.unsigned_values(rows)
    values = r.signed_values(rows[:, None] + np.arange(1, dim + 1))
    lists = []
    for kind, lo, hi in ((OutlierEntry, 0, n_outliers), (CorrectionEntry, n_outliers, n_entries)):
        step, v = steps[lo:hi], values[lo:hi]
        # a later step of 0, or a sum that may leave int64, is the walk's to report
        if not step[1:].all() or step.sum(dtype=float) >= 2.0**62:
            raise LookupError("entry steps the walk checks")
        if kind is OutlierEntry:  # only outlier values chain
            if np.abs(v).sum(dtype=float) >= 2.0**62:
                raise LookupError("outlier values the walk checks")
            v = v.cumsum(axis=0)
        lists.append(EntryList(kind, step.astype(np.int64).cumsum(), v))

    heads, t0_index, n_samples, starts = [], [], [], []
    prev_end, prev_t0 = 0, -math.inf
    for _ in range(n_segments):
        c = codes[i]
        if not c:
            raise LookupError("no signed field there")
        t0 = prev_end + (c >> 1 if c & 1 else -(c >> 1))
        _check_segment_order(t0, prev_t0)
        prev_t0 = t0
        n = codes[i + dim + 1]
        prev_end = segment_end_index(t0, n, dt, eps_t)
        n_blocks = dim * (lay.partition(n - 1)[0] + 1)
        heads.append(i)
        t0_index.append(t0)
        n_samples.append(n)
        i += dim + 2
        if 2 * n_blocks > len(codes) - i:
            raise LookupError("more blocks than fields")
        for _ in range(n_blocks):
            starts.append(i)
            i += codes[i + 1] + 2
    r.index = i
    at = np.array(starts, dtype=np.int64)
    counts = r.unsigned_values(at + 1).astype(np.int64)
    cols = BlockColumns(counts, r.signed_values(at),
                        r.signed_values(flat_ranges(at + 2, counts)),
                        BlockPlan(n_samples, dim, lay))
    _check_blocks(cols.c_f, cols.coeffs, cols.plan.limit)
    p0_q = r.signed_values(np.array(heads, dtype=np.int64)[:, None] + np.arange(1, dim + 1))
    return SegmentList(t0_index, p0_q, cols), *lists


def _walk(r, dim: int, dt: float, eps_t: float, lay: Layout, min_block_bits: int):
    """The segments, outliers and corrections of the body that the reader
    ``r`` holds, read field by field into lists that become columns once.
    Raises the error of the first field or rule that fails."""
    signed, unsigned, signeds = r.signed, r.unsigned, r.signeds
    n_segments = unsigned()
    n_outliers = unsigned()
    n_corrections = unsigned()
    lists = []
    for label, kind, count in (("outlier", OutlierEntry, n_outliers),
                               ("correction", CorrectionEntry, n_corrections)):
        t_index, values = [], []
        t, prev = 0, (0,) * dim
        for i in range(count):
            step = unsigned()
            _check_time_step(label, i, step)
            t += step
            v = signeds(dim)
            if kind is OutlierEntry:  # only outlier values chain
                v = prev = tuple([p + x for p, x in zip(prev, v)])
            t_index.append(t)
            values.append(v)
        lists.append(EntryList(kind, *_entry_arrays(label, t_index, values, dim)))

    t0_index, p0_q, n_samples = [], [], []
    deltas, counts, coeffs = [], [], []
    prev_end, prev_t0 = 0, -math.inf
    try:
        for _ in range(n_segments):
            t0 = prev_end + signed()
            _check_segment_order(t0, prev_t0)
            prev_t0 = t0
            p0_q.append(signeds(dim))
            n = unsigned()
            prev_end = segment_end_index(t0, n, dt, eps_t)
            per_dim = lay.partition(n - 1)[0] + 1  # blocks per dimension
            if dim * per_dim * min_block_bits > r.remaining_bits:
                raise TruncationError(
                    f"segment declares {per_dim} blocks per dimension, more than "
                    f"the {r.remaining_bits} remaining bits can hold"
                )
            t0_index.append(t0)
            n_samples.append(n)
            for _ in range(dim * per_dim):
                deltas.append(signed())
                counts.append(unsigned())
                coeffs += signeds(counts[-1])
    except (PilotCError, ValueError):
        # a broken block rule read before comes first
        _check_blocks(counts, coeffs, BlockPlan(n_samples, dim, lay).limit[:len(counts)])
        raise
    cols = BlockColumns(counts, deltas, coeffs, BlockPlan(n_samples, dim, lay))
    _check_blocks(cols.c_f, cols.coeffs, cols.plan.limit)
    segments = SegmentList(t0_index, np.array(p0_q, dtype=np.int64).reshape(-1, dim), cols)
    return segments, *lists
