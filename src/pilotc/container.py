"""Bit-exact container serialization (.plc).

Layout, version 2:

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
                 enhanced-zigzag varint end-delta field, varint
                 coefficient count, that many enhanced-zigzag varint
                 coefficients
    zero padding to a byte boundary

A block's end delta is its quantized displacement, its mean velocity times
its m velocities.  A moving object keeps its velocity from one block to
the next, so in each chain (one segment in one dimension) the first block
and the tail store their end delta, and every block between them, a full
block of b_s velocities, stores its step from the end delta of the block
before; ``parse`` sums the steps back (see :func:`_wire_end_deltas`).
Version 1 stored every end delta as it stands; ``parse`` reads version 2
only.

All varints use the header's chunk length l, so after the 40-byte header
the body is one flat run of chunked varints (see ``codec``).  A model
holds its fields as int64 columns (see ``model``), which ``serialize``
and the decoder read directly, once :func:`check_columns` has applied
the rules below to them.  ``serialize`` lays the fields out with array
operations: entry time steps and outlier steps come from differences of
the columns, end-delta steps from one array operation over the chains,
each block's first field sits at a running sum of the fields before it,
end delta, count and coefficients, with each segment's head in front of
its first block; it then maps the signed fields to their codes in one
array operation and writes every code with a single
:func:`~pilotc.codec.pack_varints` call.  ``parse`` reads through the
reader :func:`~pilotc.codec.varint_reader` picks, which decodes with
array operations.  At l >= 2 every chunk is l + 1 bits, so the reader
has split the whole body into fields, and ``parse`` reads the counts,
the entries and the segment heads from their codes: the entries are
1 + dim fields each, so array operations gather and check them, and a
chase finds the heads and blocks: a block at field i holds its
coefficient count c at i + 1, so the next block starts at i + 2 + c.
The chase visits two fields per block and two per head, and array
operations then gather the columns and check them.  At l = 1 a signed
field's final payload bit is implied, so a field's length depends on its
type; the reader has tabulated only the span of the field that starts at
each bit position of a window, and ``parse`` walks the body by hopping
through those spans: it decodes on the spot each field that a rule needs
in field order and marks the other signed fields with their kind, whose
values one array operation per window decodes; the marked values then
become the columns by kind.  Any failure of the chase sends ``parse``
back to that walk, which then reads the body field by field and raises
the error of the first field or rule that fails.  Either reader turns the
end-delta fields back into end deltas with one running sum over the
chains (:func:`_end_deltas`) just before it builds the block columns.

Both directions apply one set of rules, each a function below that raises
``ValueError``; ``parse`` turns a broken rule into :class:`CorruptionError`.
:func:`check_columns`, the one model check of ``serialize`` and the decoder,
applies all but the header's byte limits, the signed field and outlier steps:

- header: dimension 1..255 (:func:`check_columns` applies the floor),
  chunk length 1..32, and dt, eps, eps_t and eps_p positive and finite;
- columns: each holder's columns have the shapes it names, with one row
  of dim values per entry or segment and one end delta and c_f
  coefficients per block (:func:`check_columns`); ``parse`` also checks
  that time indices and outlier coordinates fit int64;
- entry order: the first time index is >= 0, and later ones strictly
  increase;
- signed field: each enhanced-zigzag field lies within +-(2**63 - 1), so
  its code is below 2**64; ``serialize`` checks it where it maps the
  fields, and ``parse`` meets it by construction;
- end delta: a middle block's step from the block before is a signed
  field, which ``serialize`` checks for wrap as it does outlier steps, and
  ``parse`` rejects a running sum of the steps that leaves int64;
- segment: 2 to 2**63 - 1 samples, start and end times finite in float64,
  and a start index above the previous segment's (grid spans may overlap);
- block: as many blocks as the segments' sample counts lay out, each with
  at most K(m) - 1 coefficients for its m velocities and no trailing zero;
  one array function checks every block of a model at once, in ``parse``
  and in :func:`check_columns`, unless the store keeps the plan of the same
  layout, sample counts and dimension that it was checked under.

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
    FieldReads,
    TableReader,
    enhanced_zigzag_map,
    pack_varints,
    round_half_away,
    varint_reader,
)
from .errors import CorruptionError, FormatError, PilotCError, TruncationError
from .model import BlockColumns, CompressedTrajectory, EntryColumns, SegmentColumns
from .params import Layout

MAGIC = b"PLTC"
VERSION = 2
_HEADER_LEN = 8
_FLOAT_FIELDS = 4


# ---------------------------------------------------------------------------
# the container rules
# ---------------------------------------------------------------------------

def _check_limits(dim: int, chunk_bits: int) -> None:
    """The ranges of the header's one-byte fields."""
    if not 1 <= dim <= 255:
        raise ValueError(f"dimension must be in 1..255, got {dim}")
    if not 1 <= chunk_bits <= 32:
        raise ValueError(f"chunk length must be in 1..32, got {chunk_bits}")


def _check_scales(dt: float, eps: float, eps_t: float, eps_p: float) -> None:
    for name, v in (("dt", dt), ("eps", eps), ("eps_t", eps_t), ("eps_p", eps_p)):
        if not 0.0 < v < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {v}")


def _check_time_step(label: str, i: int, step: int) -> None:
    """Entry order, on entry i's step from the previous time index (from 0
    for the first entry)."""
    if step < (i > 0):
        raise ValueError(f"{label} {i}: time indices must be non-negative and "
                         f"strictly increasing, got a step of {step}")


def _entry_column(label: str, values) -> np.ndarray:
    """Entry fit: time indices or values as an int64 column; raises
    ``ValueError`` for one outside int64."""
    try:
        return np.array(values, dtype=np.int64)
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


def _wire_end_deltas(end_delta: np.ndarray, plan: BlockPlan) -> np.ndarray:
    """The end-delta field of each block of ``plan``: the end delta of a
    chain's first block and of its tail, and for every block between them,
    a full block of b_s velocities, its step from the end delta of the block
    before.  Raises ``OverflowError`` for a step beyond int64."""
    middle = np.ones(end_delta.size, dtype=bool)
    middle[plan.chain_start] = False
    middle[plan.chain_start + plan.per_chain - 1] = False
    i = middle.nonzero()[0]
    a, b = end_delta[i], end_delta[i - 1]
    step = a - b
    if (((a ^ b) & (a ^ step)) < 0).any():
        raise OverflowError("an end-delta step beyond int64")
    wire = end_delta.copy()
    wire[i] = step
    return wire


def _end_deltas(wire: np.ndarray, plan: BlockPlan) -> np.ndarray:
    """Inverse of :func:`_wire_end_deltas`: a running sum of each chain's
    wire values up to its tail, which keeps its own.  When their magnitudes
    sum to 2**62 or more, it sums in Python ints, so nothing wraps; raises
    ``ValueError`` for an end delta outside int64."""
    last = plan.chain_start + plan.per_chain - 1
    run = wire.copy()
    run[last] = 0
    exact = np.add.reduce(np.abs(run), dtype=float) >= 2.0**62
    if exact:
        run = run.astype(object)
    total = run.cumsum()
    out = total - (total - run)[plan.chain_start].repeat(plan.per_chain)
    out[last] = wire[last]
    if exact:
        try:
            out = np.array(out, dtype=np.int64)
        except OverflowError:
            raise ValueError("a block end delta outside int64") from None
    return out


def check_columns(model: CompressedTrajectory, constants) -> tuple[BlockPlan, list[int]]:
    """Apply every model rule to ``model`` under the dataset ``constants``:
    the header's scales and dimension floor, which derive its layout, the
    shapes of its columns, the entry order and the segment rule and, unless
    its block store keeps the plan of that layout, the model's sample counts
    and dimension, the block count and the block rule.  Returns the plan of
    the model's blocks, the store's own or a new one, whose ``lay`` is the
    layout, and each segment's grid-end time index.  Raises ``ValueError``
    for a broken rule."""
    _check_scales(model.dt, model.eps, model.eps_t, model.eps_p)
    dim = model.dim
    lay = Layout.derive(model.eps, model.eps_p, dim, constants)
    for label, entries in (("outlier", model.outliers), ("correction", model.corrections)):
        t_index, values = entries.t_index, entries.values
        if t_index.ndim != 1 or values.shape != (t_index.size, dim):
            raise ValueError(f"{label} columns of shapes {t_index.shape} and {values.shape}, "
                             f"not one time index per row of {dim} values")
        if t_index.size and (t_index[0] < 0 or (t_index[1:] <= t_index[:-1]).any()):
            # the first entry out of order; its step in Python ints, which cannot wrap
            i = 0 if t_index[0] < 0 else int((t_index[1:] <= t_index[:-1]).argmax()) + 1
            _check_time_step(label, i, int(t_index[i]) - (int(t_index[i - 1]) if i else 0))
    segments = model.segments
    n_samples = segments.n_samples
    if segments.p0_q.shape != (len(segments), dim) or len(n_samples) != len(segments):
        raise ValueError(f"{len(segments)} segment start indices, start values of shape "
                         f"{segments.p0_q.shape} and {len(n_samples)} sample counts, "
                         f"not one start value per dimension and one count per segment")
    ends = []
    for t0, prev_t0, n in zip(segments.t0_index, [-math.inf, *segments.t0_index], n_samples):
        _check_segment_order(t0, prev_t0)
        ends.append(segment_end_index(t0, n, model.dt, model.eps_t))
    cols, plan = segments.store, segments.store.plan
    if plan is not None and (plan.lay, plan.n_samples, plan.dim) == (lay, n_samples, dim):
        return plan, ends
    plan = BlockPlan(n_samples, dim, lay)  # the segment rule keeps the counts in int64
    if not (cols.c_f.shape == cols.end_delta.shape == plan.length.shape
            and cols.c_f.min(initial=0) >= 0 and cols.coeffs.shape == (cols.offsets[-1],)):
        raise ValueError(f"block columns of shapes {cols.c_f.shape}, {cols.end_delta.shape} and "
                         f"{cols.coeffs.shape}, not a count and an end delta for each of the "
                         f"{plan.length.size} blocks laid out and c_f coefficients each")
    _check_blocks(cols.c_f, cols.coeffs, plan.limit)
    return plan, ends


def serialize(model: CompressedTrajectory, profile) -> bytes:
    """Serialize a model; ``profile`` supplies the dataset constants a, b, c, d."""
    dim = model.dim
    _check_limits(dim, model.chunk_bits)
    plan, ends = check_columns(model, profile)
    segments = model.segments
    cols = segments.store
    out_t, out_v = model.outliers.t_index, model.outliers.values
    cor_t, cor_v = model.corrections.t_index, model.corrections.values

    try:
        n_out = out_t.size
        n_before = 3 + (n_out + cor_t.size) * (dim + 1)  # the counts and the entries
        heads = np.empty((len(segments), dim + 2), dtype=np.int64)
        heads[:, 0] = [t0 - end for t0, end in zip(segments.t0_index, [0, *ends])]
        heads[:, 1:-1] = segments.p0_q
        heads[:, -1] = segments.n_samples
        # each segment's head goes in front of its first block
        first = plan.chain_start[::dim]
        size = 2 + cols.c_f  # fields per block: end delta, count, coefficients
        size[first] += dim + 2
        at = n_before + size.cumsum() - size  # each block's first field
        body = np.empty(n_before + int(size.sum()), dtype=np.int64)
        body[:3] = len(segments), n_out, cor_t.size
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
        body[at] = _wire_end_deltas(cols.end_delta, plan)
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
    codes = np.where(is_signed, codes, body.view(np.uint64))
    return (MAGIC + bytes((VERSION, dim, 0, model.chunk_bits))  # flags reserved
            + struct.pack("<dddd", model.dt, model.eps, model.eps_t, model.eps_p)
            + pack_varints(codes, is_signed, model.chunk_bits))


def parse(data: bytes, profile) -> CompressedTrajectory:
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
        _check_limits(dim, l)
        _check_scales(dt, eps, eps_t, eps_p)
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
    for chained, lo, hi in ((True, 0, n_outliers), (False, n_outliers, n_entries)):
        step, v = steps[lo:hi], values[lo:hi]
        # a later step of 0, or a sum that may leave int64, is the walk's to report
        if not step[1:].all() or step.sum(dtype=float) >= 2.0**62:
            raise LookupError("entry steps the walk checks")
        if chained:  # only outlier values chain
            if np.abs(v).sum(dtype=float) >= 2.0**62:
                raise LookupError("outlier values the walk checks")
            v = v.cumsum(axis=0)
        lists.append(EntryColumns(step.astype(np.int64).cumsum(), v))

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
    plan = BlockPlan(n_samples, dim, lay)
    cols = BlockColumns(counts, _end_deltas(r.signed_values(at), plan),
                        r.signed_values(flat_ranges(at + 2, counts)), plan)
    _check_blocks(cols.c_f, cols.coeffs, plan.limit)
    p0_q = r.signed_values(np.array(heads, dtype=np.int64)[:, None] + np.arange(1, dim + 1))
    return SegmentColumns(t0_index, p0_q, plan.n_samples, cols), *lists


_ENTRY, _HEAD, _DELTA, _COEFF = 1, 2, 3, 4  # kinds of the signed fields the walk marks


def _walk(r, dim: int, dt: float, eps_t: float, lay: Layout, min_block_bits: int):
    """The segments, outliers and corrections of the body that the reader
    ``r`` holds, read in field order.  Raises the error of the first field
    or rule that fails.

    At l = 1 the walk hops through the spans of the
    :class:`~pilotc.codec.TableReader`'s window itself.  It decodes on the
    spot the fields that rules need in field order: each entry's time step
    and each block's coefficient count by itself, and the other counts,
    sample counts and segment start deltas through ``read``.  It marks every
    other signed field with its kind, and takes the values the window
    decoded where it needs them: the outliers', which chain, after their
    section, and the rest at the end.  Any other reader it reads field by
    field through :class:`~pilotc.codec.FieldReads`."""
    if not isinstance(r, TableReader):
        r = FieldReads(r)
    spans, payload, marks, read = r.spans, r.payload, r.marks, r.read
    n_segments, i = read(0, False)
    n_outliers, i = read(i, False)
    n_corrections, i = read(i, False)
    t_columns, outlier_values = [], np.zeros((0, dim), dtype=np.int64)
    for label, count in (("outlier", n_outliers), ("correction", n_corrections)):
        t_index, t = [], 0
        for e in range(count):
            s = spans[i]
            if s > 126:
                step, i = read(i, False)
            else:
                step = payload[i & 1] >> (i >> 1) & (2 << (s >> 1)) - 1
                i += s + 2
            if step < (e > 0):
                _check_time_step(label, e, step)
            t += step
            t_index.append(t)
            for _ in range(dim):
                s = spans[i]
                if s > 126:
                    i = read(i, True, _ENTRY)[1]
                else:
                    marks[i] = _ENTRY
                    i += s + 1
        t_columns.append(_entry_column(label, t_index))
        if label == "outlier" and count:  # outlier values chain, summed in Python ints
            steps = r.decoded(i)[1].reshape(count, dim)
            outlier_values = _entry_column(label, steps.astype(object).cumsum(axis=0))

    t0_index, n_samples = [], []
    counts, j = [], 0  # the blocks' coefficient counts, j of them read
    prev_end, prev_t0 = 0, -math.inf
    try:
        for _ in range(n_segments):
            delta, i = read(i, True)
            t0 = prev_end + delta
            _check_segment_order(t0, prev_t0)
            prev_t0 = t0
            for _ in range(dim):
                s = spans[i]
                if s > 126:
                    i = read(i, True, _HEAD)[1]
                else:
                    marks[i] = _HEAD
                    i += s + 1
            n, i = read(i, False)
            prev_end = segment_end_index(t0, n, dt, eps_t)
            per_dim = lay.partition(n - 1)[0] + 1  # blocks per dimension
            if dim * per_dim * min_block_bits > r.remaining(i):
                raise TruncationError(
                    f"segment declares {per_dim} blocks per dimension, more than "
                    f"the {r.remaining(i)} remaining bits can hold"
                )
            t0_index.append(t0)
            n_samples.append(n)
            counts += [0] * (dim * per_dim)
            for _ in range(dim * per_dim):
                s = spans[i]
                if s > 126:
                    i = read(i, True, _DELTA)[1]
                else:
                    marks[i] = _DELTA
                    i += s + 1
                s = spans[i]
                if s > 126:
                    c, i = read(i, False)
                else:
                    c = payload[i & 1] >> (i >> 1) & (2 << (s >> 1)) - 1
                    i += s + 2
                counts[j] = c
                j += 1
                for _ in range(c):
                    s = spans[i]
                    if s > 126:
                        i = read(i, True, _COEFF)[1]
                    else:
                        marks[i] = _COEFF
                        i += s + 1
    except (PilotCError, ValueError):
        # a broken block rule read before comes first
        kinds, values = r.decoded(i)
        _check_blocks(counts[:j], values[kinds == _COEFF],
                      BlockPlan(n_samples, dim, lay).limit[:j])
        raise
    kinds, values = r.decoded(i)
    plan = BlockPlan(n_samples, dim, lay)
    c_f, coeffs = np.array(counts, dtype=np.int64), values[kinds == _COEFF]
    _check_blocks(c_f, coeffs, plan.limit)
    cols = BlockColumns(c_f, _end_deltas(values[kinds == _DELTA], plan), coeffs, plan)
    p0_q = values[kinds == _HEAD].reshape(-1, dim)
    return (SegmentColumns(t0_index, p0_q, plan.n_samples, cols),
            EntryColumns(t_columns[0], outlier_values),
            EntryColumns(t_columns[1], values[kinds == _ENTRY].reshape(-1, dim)))
