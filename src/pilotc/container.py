"""Bit-exact container serialization (.plc).

Layout, version 3:

    magic "PLTC" | version u8 | dim u8 | flags u8 (0) | chunk_bits u8
    dt, eps, eps_t, eps_p as little-endian float64
    unsigned stream: segment count, outlier count, correction count;
                     each outlier's time-index delta, then each
                     correction's; each segment's sample count; each
                     block's coefficient count
    signed stream:   enhanced-zigzag varints: per outlier and dim its
                     coordinate-index delta; per correction and dim its
                     quantized residual; per segment its t0-index delta
                     from the previous segment's grid-end index (0 before
                     the first); per segment and dim its quantized start
                     value; each block's end-delta field; then every
                     block's coefficients, one block after the other
    zero padding to a byte boundary

Blocks come in container order: segment, dimension, block.  Each section
of a stream is one model column, or the three counts, and
:data:`_SECTIONS` writes their order once: ``serialize`` concatenates the
columns in it, and ``parse`` reads the sections in it.

A block's end delta is its quantized displacement, its mean velocity times
its m velocities.  A moving object keeps its velocity from one block to
the next, so in each chain (one segment in one dimension) the first block
and the tail store their end delta, and every block between them, a full
block of b_s velocities, stores its step from the end delta of the block
before; ``parse`` sums the steps back (see :func:`_wire_end_deltas`).
Version 1 stored every end delta as it stands, and versions 1 and 2
interleaved the field classes field by field; ``parse`` reads version 3
only.

All varints use the header's chunk length l (see ``codec``).  A model
holds its fields as int64 columns (see ``model``), which ``serialize``
and the decoder read directly, once :func:`check_columns` has applied
the rules below to them.  ``serialize`` takes the wire fields from the
columns with array operations (entry time steps and outlier steps from
their differences, end-delta steps from one array operation over the
chains), maps the signed stream to its codes in one array operation and
writes both streams with a single :func:`~pilotc.codec.pack_varints`
call.  Each stream holds one field class, so ``parse`` splits it into
fields with :func:`~pilotc.codec.split_varints` whatever l, a window of
bits at a time, so its memory does not grow with the body beyond the
model's own columns: at l >= 2 every chunk is l + 1 bits, and one split
of a window serves both streams; at l = 1 a signed field's final chunk is
a bare flag, so the bits after the unsigned stream are split again as
signed fields.  ``parse`` reads the sections by their names in
:data:`_SECTIONS`, in order, and checks each section's rules on its
fields with array operations; a field that cannot be read raises its
error only after the rules on the fields before it (see :class:`_Body`),
so parse raises the error of the first field or rule that fails in
stream order.
The sample counts lay out every block in one
:class:`~pilotc.blocks.BlockPlan`, and the end-delta fields become end
deltas in one running sum over the chains (:func:`_end_deltas`).

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
  array functions check every block of a model at once, in ``parse`` and
  in :func:`check_columns`, unless the store keeps the plan of the same
  layout, sample counts and dimension that it was checked under.

A segment's blocks per dimension are :meth:`~pilotc.params.Layout.partition`
of its velocities, and the block size derives from eps and the dataset
constants, so a container decodes only with the constants it was encoded
with.  ``parse`` raises :class:`TruncationError` when the bits run out or
the segments declare more blocks than the bits after their sample counts
can hold, and :class:`CorruptionError` for a bad varint, a zero signed
code, an overflowing block size or segment end, and unread bytes or
nonzero padding.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .blocks import BlockPlan
from .codec import _field_error, enhanced_zigzag_map, pack_varints, round_half_away, split_varints
from .errors import CorruptionError, FormatError, TruncationError
from .model import BlockColumns, CompressedTrajectory, EntryColumns, SegmentColumns
from .params import Layout

MAGIC = b"PLTC"
VERSION = 3
_HEADER_LEN = 8
_FLOAT_FIELDS = 4

# bits split into fields at a time, far more than the 130 of the longest field
_WINDOW = 1 << 18
# the body's sections in stream order, and whether their fields are signed
_SECTIONS = (
    ("counts", False), ("outlier times", False), ("correction times", False),
    ("sample counts", False), ("coefficient counts", False),
    ("outlier values", True), ("correction values", True), ("segment starts", True),
    ("start values", True), ("end deltas", True), ("coefficients", True),
)


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


def _entry_times(steps: np.ndarray, label: str) -> np.ndarray:
    """Entry order and fit, on the time steps of an entry column: returns
    the time indices, int64."""
    if 0 in steps[1:]:
        _check_time_step(label, int(steps[1:].argmin()) + 1, 0)
    return _running_sum(steps, f"{label}s: a time index or value")


def _outlier_values(steps: np.ndarray, dim: int) -> np.ndarray:
    """Entry fit, on the outliers' coordinate steps, dim per outlier, which
    may stop short, as a section cut short does: returns the coordinates,
    one row per outlier."""
    rows = np.zeros((-(-steps.size // dim), dim), dtype=np.int64)
    rows.flat[:steps.size] = steps
    return _running_sum(rows, "outliers: a time index or value")


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


def _check_counts(c_f: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """The block rule's counts: block i holds at most ``limit[i]`` =
    K(m) - 1 coefficients for its m velocities; ``c_f`` may stop short.
    Returns the counts, int64."""
    over = (c_f > limit[:c_f.size]).nonzero()[0]
    if over.size:
        i = over[0]
        raise ValueError(f"block declares {c_f[i]} coefficients, over its retention "
                         f"budget of {limit[i]}")
    return c_f.astype(np.int64, copy=False)


def _check_coeffs(coeffs: np.ndarray, c_f: np.ndarray) -> np.ndarray:
    """The block rule's coefficients: no block ends in a zero one.
    ``coeffs`` holds the blocks' coefficients one block after the other; a
    block whose coefficients run past its end is not checked.  Returns
    ``coeffs``."""
    last = c_f.cumsum()[c_f > 0] - 1  # each nonempty block's last coefficient
    if 0 in coeffs[last[last < coeffs.size]]:
        raise ValueError("block ends in a zero coefficient")
    return coeffs


def _running_sum(steps: np.ndarray, what: str, plan: BlockPlan | None = None) -> np.ndarray:
    """The running sums of ``steps`` along their first axis, as int64,
    started again at each chain of ``plan`` if given.  While the steps'
    magnitudes sum below 2**62 nothing can wrap, so they are summed in
    int64, and from there on in Python ints; raises ``ValueError`` for a
    sum outside int64."""
    if not steps.size:
        return steps.astype(np.int64)
    exact = np.add.reduce(np.abs(steps), axis=None, dtype=float) >= 2.0**62
    run = steps.astype(object if exact else np.int64)
    total = run.cumsum(axis=0)
    if plan is not None:
        total -= (total - run)[plan.chain_start].repeat(plan.per_chain)
    if exact:
        try:
            total = np.array(total, dtype=np.int64)
        except OverflowError:
            raise ValueError(f"{what} outside int64") from None
    return total


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
    wire values up to its tail, which keeps its own; raises ``ValueError``
    for an end delta outside int64.  ``wire`` may stop short, as a section
    cut short does; the blocks after it read as 0."""
    last = plan.chain_start + plan.per_chain - 1
    run = np.zeros(plan.length.size, dtype=np.int64)
    run[:wire.size] = wire
    tails = run[last]
    run[last] = 0
    out = _running_sum(run, "a block end delta", plan)
    out[last] = tails
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
    _check_counts(cols.c_f, plan.limit)
    _check_coeffs(cols.coeffs, cols.c_f)
    return plan, ends


def serialize(model: CompressedTrajectory, profile) -> bytes:
    """Serialize a model; ``profile`` supplies the dataset constants a, b, c, d."""
    dim = model.dim
    _check_limits(dim, model.chunk_bits)
    plan, ends = check_columns(model, profile)
    segments = model.segments
    cols = segments.store
    out_t, out_v = model.outliers.t_index, model.outliers.values
    cor_t = model.corrections.t_index
    try:
        # outlier values travel as steps along their chain, which must not wrap
        out_steps = _steps(out_v)
        if (((out_v[1:] ^ out_v[:-1]) & (out_v[1:] ^ out_steps[1:])) < 0).any():
            raise OverflowError("an outlier step beyond int64")
        columns = {
            "counts": [len(segments), out_t.size, cor_t.size],
            "outlier times": _steps(out_t),
            "correction times": _steps(cor_t),
            "sample counts": np.array(segments.n_samples, dtype=np.int64),
            "coefficient counts": cols.c_f,
            "outlier values": out_steps,
            "correction values": model.corrections.values,
            "segment starts": np.array([t0 - end for t0, end in zip(segments.t0_index, [0, *ends])],
                                       dtype=np.int64),
            "start values": segments.p0_q,
            "end deltas": _wire_end_deltas(cols.end_delta, plan),
            "coefficients": cols.coeffs,
        }
        unsigned, signed = (np.concatenate([columns[name] for name, is_signed in _SECTIONS
                                            if is_signed is stream], axis=None, dtype=np.int64)
                            for stream in (False, True))
        # one array operation maps the signed stream and applies its rule
        codes = np.concatenate((unsigned.view(np.uint64), enhanced_zigzag_map(signed)))
    except OverflowError:
        raise ValueError("a signed field outside +-(2**63 - 1)") from None
    return (MAGIC + bytes((VERSION, dim, 0, model.chunk_bits))  # flags reserved
            + struct.pack("<dddd", model.dt, model.eps, model.eps_t, model.eps_p)
            + pack_varints(codes, np.arange(codes.size) >= unsigned.size, model.chunk_bits))


def _steps(column: np.ndarray) -> np.ndarray:
    """Each row's step from the row before, the first row's from 0."""
    steps = column.copy()
    steps[1:] -= column[:-1]
    return steps


def parse(data: bytes, profile) -> CompressedTrajectory:
    """Inverse of :func:`serialize`; same ``profile`` constants required."""
    if data[: len(MAGIC)] != MAGIC:
        if len(data) < len(MAGIC):
            raise TruncationError(f"container too short for magic: {len(data)} bytes")
        raise FormatError("bad magic, not a PLTC container")
    if len(data) < _HEADER_LEN + 8 * _FLOAT_FIELDS:
        raise TruncationError("container truncated inside the fixed header")
    version, dim, flags, l = data[4:8]
    if version != VERSION:
        raise FormatError(f"unsupported container version {version}")
    if flags != 0:
        raise FormatError(f"unsupported flags byte {flags:#04x}")
    dt, eps, eps_t, eps_p = struct.unpack_from("<dddd", data, _HEADER_LEN)

    try:
        _check_limits(dim, l)
        _check_scales(dt, eps, eps_t, eps_p)
        lay = Layout.derive(eps, eps_p, dim, profile)
        body = _Body(np.frombuffer(data, dtype=np.uint8, offset=_HEADER_LEN + 8 * _FLOAT_FIELDS), l)
        segments, outliers, corrections = _read(body, dim, dt, eps_t, lay)
    except ValueError as exc:  # a broken rule, or a signed field of the code 0
        raise CorruptionError(str(exc)) from exc

    rest = 8 * body.data.size - body.pos
    if rest >= 8:
        raise CorruptionError(f"{rest} unread bits after the payload")
    if data[-1] & ((1 << rest) - 1):
        raise CorruptionError("nonzero padding bits at end of container")

    return CompressedTrajectory(
        dim=dim, dt=dt, eps=eps, eps_t=eps_t, eps_p=eps_p, chunk_bits=l,
        segments=segments, outliers=outliers, corrections=corrections,
    )


class _Body:
    """A container body, read one section of :data:`_SECTIONS` at a time.

    The body is split into fields :data:`_WINDOW` bits at a time, each
    window from the bit after the last field taken, so the arrays of a split
    keep their size however long the body.  At l >= 2 one split serves both
    streams, whose chunks are alike; at l = 1 the bits after the unsigned
    stream read there as nonsense fields, and are split again as signed ones
    when the first signed section is taken."""

    def __init__(self, data: np.ndarray, l: int) -> None:
        self.data, self.l = data, l
        self._k = 0  # the next section
        self.pos = 0  # the bit after the fields taken
        self._signed = False
        self._split()

    def _split(self, bits: np.ndarray | None = None) -> None:
        """Split into fields ``bits``, which start at the bit after the
        fields taken and end where the window does, or else the next window."""
        start = self.pos
        if bits is None:
            window = self.data[start // 8:start // 8 + _WINDOW // 8]
            self._last = start // 8 + window.size == self.data.size  # the window ends the body
            bits = np.unpackbits(window)[start % 8:]
        self._bits, self._start, self._i = bits, start, 0
        codes, self._readable, ends = split_varints(bits, self.l, self._signed and self.l == 1)
        self._codes, self._ends = codes, ends + start
        if self._signed:
            self._to_values()
        else:
            self._fields = codes
            bad = (~self._readable).nonzero()[0]  # the first field that cannot be read
            self._bad = int(bad[0]) if bad.size else codes.size

    def _to_values(self) -> None:
        """Read the window's fields as values.  A code 0 maps to no value,
        so from the next field on, it cannot be read either."""
        i, codes = self._i, self._codes
        self._fields = (codes >> 1).astype(np.int64)
        np.negative(self._fields, out=self._fields, where=(codes & 1) == 0)
        bad = (~self._readable[i:] | (codes[i:] == 0)).nonzero()[0]
        self._bad = i + int(bad[0]) if bad.size else codes.size

    def take(self, name: str, n: int, rule=None, *args) -> np.ndarray:
        """The ``n`` fields of section ``name``, the next one in
        :data:`_SECTIONS`: their uint64 codes, or their int64 values in a
        signed section, or what ``rule(fields, *args)`` returns.  If one of
        them cannot be read, ``rule`` gets the fields before it, and then its
        error is raised.  :attr:`ends` then holds the bit after each field
        taken."""
        section, signed = _SECTIONS[self._k]
        assert name == section, f"section {name!r} read where {section!r} lies"
        self._k += 1
        if signed and not self._signed:
            self._signed = True
            if self.l == 1:  # the rest of the window again, where a final chunk is a bare flag
                self._split(self._bits[self.pos - self._start:])
            else:
                self._to_values()
        i = self._i
        if i + n <= self._bad:  # in the window
            fields, self.ends, self._i, short = self._fields[i:i + n], self._ends[i:i + n], i + n, 0
        else:
            fields, short = self._gather(n)
        if self.ends.size:
            self.pos = int(self.ends[-1])
        if rule is not None:
            fields = rule(fields, *args)
        if short:
            if self._i < self._codes.size and self._readable[self._i]:
                raise ValueError("enhanced zigzag code must be >= 1, got 0")
            raise _field_error(self.data, self.pos, self.l, 0 if signed and self.l == 1 else self.l)
        return fields

    def _gather(self, n: int) -> tuple[np.ndarray, int]:
        """The next ``n`` fields, as far as they can be read, from as many
        windows as they span, and how many fall short."""
        fields, ends = [], []
        while True:
            i = self._i
            k = min(n, self._bad - i)
            fields.append(self._fields[i:i + k])
            ends.append(self._ends[i:i + k])
            self._i, n = i + k, n - k
            # go on while the fields run to the end of a window before the last
            if not n or self._i < self._codes.size or self._last or not self._codes.size:
                break
            self.pos = int(self._ends[-1])
            self._split()
        self.ends = np.concatenate(ends)
        return np.concatenate(fields), n


def _read(body: _Body, dim: int, dt: float, eps_t: float, lay: Layout):
    """The segments, outliers and corrections of ``body``, read section by
    section in the order of :data:`_SECTIONS`, each section's rules checked
    on its fields."""
    n_segments, n_outliers, n_corrections = body.take("counts", 3).tolist()
    out_t = body.take("outlier times", n_outliers, _entry_times, "outlier")
    cor_t = body.take("correction times", n_corrections, _entry_times, "correction")
    plan = BlockPlan(body.take("sample counts", n_segments, _sample_counts, body, dim, lay),
                     dim, lay)
    c_f = body.take("coefficient counts", plan.length.size, _check_counts, plan.limit)
    out_v = body.take("outlier values", n_outliers * dim, _outlier_values, dim)
    cor_v = body.take("correction values", n_corrections * dim).reshape(-1, dim)
    t0_index = body.take("segment starts", n_segments, _segment_starts, plan, dt, eps_t)
    p0_q = body.take("start values", n_segments * dim).reshape(-1, dim)
    end_delta = body.take("end deltas", plan.length.size, _end_deltas, plan)
    coeffs = body.take("coefficients", int(np.add.reduce(c_f)), _check_coeffs, c_f)
    return (SegmentColumns(t0_index, p0_q, plan.n_samples,
                           BlockColumns(c_f, end_delta, coeffs, plan)),
            EntryColumns(out_t, out_v), EntryColumns(cor_t, cor_v))


def _sample_counts(n: np.ndarray, body: _Body, dim: int, lay: Layout) -> np.ndarray:
    """The segment rule's sample counts, and room for the blocks they lay
    out: the blocks of a segment and of those before it must fit, at their
    fewest bits, in the bits after its sample count.  A block stores at
    least a count of one chunk and a signed end delta of one chunk, whose
    final payload bit is implied at l = 1.  Returns the counts, int64."""
    counts = n.astype(np.int64)  # a count of 2**63 or more wraps below 2
    wrong = (counts < 2).nonzero()[0]
    k = wrong[0] if wrong.size else n.size
    counts = counts[:k]
    # in float64, where dim times a segment's blocks per chain cannot wrap as in int64
    blocks = ((lay.partition(counts - 1)[0] + 1) * float(dim)).cumsum()
    room = 8 * body.data.size - body.ends[:k]
    l = body.l
    short = (blocks * (2 * (l + 1) - (l == 1)) > room).nonzero()[0]
    if short.size:
        i = short[0]
        raise TruncationError(f"segments 0..{i} declare {blocks[i]:.0f} blocks, more than "
                              f"the {room[i]} remaining bits can hold")
    if k < n.size:  # the segment rule fails on the count before it reads the span
        segment_end_index(0, int(n[k]), 1.0, 1.0)
    return counts


def _segment_starts(deltas: np.ndarray, plan: BlockPlan, dt: float, eps_t: float) -> list:
    """The segment rule, on each segment's start delta from the grid end of
    the segment before (0 before the first): returns the start indices."""
    t0_index, prev_end, prev_t0 = [], 0, -math.inf
    for delta, n in zip(deltas.tolist(), plan.n_samples):
        t0 = prev_end + delta
        _check_segment_order(t0, prev_t0)
        prev_end, prev_t0 = segment_end_index(t0, n, dt, eps_t), t0
        t0_index.append(t0)
    return t0_index
