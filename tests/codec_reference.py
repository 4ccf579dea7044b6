"""Shared test helper: plain reference implementations of the codec.

The library codes every block of a series in one batched, truncated
cosine product, splits a container body into varints with array
operations and checks each section of it at once,
resamples every fragment of a trajectory in one interpolation per
dimension, and answers a query for a whole chunk of timestamps at once.
These references do the same jobs the slow, obvious way: one block at a
time with a full cosine sum, one varint at a time with a
regular-expression scan, a container field by field, one fragment at a
time, and one timestamp at a time, so tests can require the library to
agree with them.  The batched
block decode is here twice, with every float step a fresh array: as one
synthesis product, the bitwise reference of the library's decode, and as
the running sum that decoders before the product computed, which files
written by earlier builds were validated against.  The paper's
closed-form error predictors live here too, since only tests use them.
"""

import math
import re
import struct
from typing import NamedTuple

import numpy as np

from pilotc.blocks import _windows, flat_ranges
from pilotc.codec import dequantize_array, quantize_array, round_half_away
from pilotc.container import MAGIC, VERSION, segment_end_index
from pilotc.errors import CorruptionError, FormatError, QueryRangeError, TruncationError
from pilotc.model import (
    BlockColumns,
    CompressedTrajectory,
    EncodedBlock,
    EntryColumns,
    SegmentColumns,
)
from pilotc.params import Layout
from pilotc.reconstruct import Reconstructor
from pilotc.transform import cosine_basis


def enhanced_zigzag_unmap(u: int) -> int:
    """Inverse of :func:`~pilotc.codec.enhanced_zigzag_map` for one code."""
    u = int(u)
    if u < 1:
        raise ValueError(f"enhanced zigzag code must be >= 1, got {u}")
    return (u - 1) // 2 if u % 2 == 1 else -(u // 2)


def round_index_ref(x, unit: float):
    """Index of the nearest multiple of ``unit``, ties away from zero, as
    int64, by the formula ``sign(v) * floor(|v| / unit + 0.5)`` in fresh
    arrays; for values whose index fits the exact float64 integer range."""
    v = np.asarray(x, dtype=float)
    return (np.sign(v) * np.floor(np.abs(v) / unit + 0.5)).astype(np.int64)


class VarintReader:
    """Reads, in order, the varints that ``pack_varints`` wrote.

    The bits are held as a ``b"0"``/``b"1"`` string.  A read finds the
    code's final flag with one regular-expression scan and parses the
    payloads from slices.  It raises :class:`TruncationError` when the bits
    run out, and :class:`CorruptionError` past 64 // l continuation chunks or
    for a code of 2**64 or more, which no writer produces.
    """

    def __init__(self, data: bytes, chunk_bits: int) -> None:
        l = chunk_bits
        if not 1 <= l <= 32:
            raise ValueError(f"chunk length must be in 1..32, got {l}")
        self._bits = (np.unpackbits(np.frombuffer(data, dtype=np.uint8)) + ord("0")).tobytes()
        self._flagged = re.compile(rb"(?:1[01]{%d}){0,%d}" % (l, 64 // l + 1))
        self._payload = re.compile(rb"1([01]{%d})" % l)
        self._max_flagged_bits = (64 // l) * (l + 1)
        self._l = l
        self._signed_final = 0 if l == 1 else l  # stored final payload bits
        self.pos = 0

    @property
    def remaining_bits(self) -> int:
        return len(self._bits) - self.pos

    def unsigned(self) -> int:
        return self._read(self._l)

    def signed(self) -> int:
        return enhanced_zigzag_unmap(self._read(self._signed_final))

    def signeds(self, n: int) -> tuple[int, ...]:
        return tuple([self.signed() for _ in range(n)])

    def _read(self, final_bits: int) -> int:
        bits, pos = self._bits, self.pos
        end = self._flagged.match(bits, pos).end()
        if end - pos > self._max_flagged_bits:
            raise CorruptionError("varint longer than any encodable value")
        stop = end + 1 + final_bits
        if stop > len(bits) or bits[end] != ord("0"):
            raise TruncationError(f"bitstream exhausted inside the varint at bit {pos}")
        chunks = self._payload.findall(bits, pos, end)
        chunks.reverse()
        # an implied final payload (final_bits == 0) is the bit 1
        code = int((bits[end + 1:stop] or b"1") + b"".join(chunks), 2)
        if code >> 64:
            raise CorruptionError(f"varint code {code} exceeds 64 bits")
        self.pos = stop
        return code


def parse_ref(data: bytes, profile) -> CompressedTrajectory:
    """A version 3 container read field by field through
    :class:`VarintReader`, each rule checked at the field that completes it,
    so the first field or rule that fails in stream order names the error:
    :class:`TruncationError` when the bits run out, or when the segments up
    to a sample count declare more blocks than the bits after it can hold,
    at two chunks each, the end delta's final payload bit implied at l = 1;
    :class:`CorruptionError` for a broken rule or field; and
    :class:`FormatError` for a bad magic, version or flags byte."""
    if len(data) < 4:
        raise TruncationError("no magic")
    if data[:4] != MAGIC:
        raise FormatError("bad magic")
    if len(data) < 40:
        raise TruncationError("no header")
    version, dim, flags, l = data[4:8]
    if version != VERSION or flags:
        raise FormatError("unsupported version or flags")
    dt, eps, eps_t, eps_p = struct.unpack_from("<dddd", data, 8)
    try:
        if not (1 <= dim <= 255 and 1 <= l <= 32
                and all(0.0 < v < math.inf for v in (dt, eps, eps_t, eps_p))):
            raise ValueError("header out of range")
        lay = Layout.derive(eps, eps_p, dim, profile)
        r = VarintReader(data[40:], l)
        model = _parse_body_ref(r, l, dim, dt, eps, eps_t, eps_p, lay)
    except ValueError as exc:  # a broken rule, or a signed field of the code 0
        raise CorruptionError(str(exc)) from exc
    if r.remaining_bits >= 8 or data[-1] & ((1 << r.remaining_bits) - 1):
        raise CorruptionError("unread bytes or nonzero padding")
    return model


def _fits(v: int) -> int:
    if not -2**63 <= v < 2**63:
        raise ValueError(f"{v} outside int64")
    return v


def _parse_body_ref(r: VarintReader, l, dim, dt, eps, eps_t, eps_p, lay) -> CompressedTrajectory:
    n_segments, n_outliers, n_corrections = r.unsigned(), r.unsigned(), r.unsigned()
    times = []
    for count in (n_outliers, n_corrections):
        t_index, t = [], 0
        for e in range(count):
            step = r.unsigned()
            if e and not step:
                raise ValueError("time indices must strictly increase")
            t = _fits(t + step)
            t_index.append(t)
        times.append(t_index)
    n_samples, lengths = [], []  # each block's velocity count, in container order
    for _ in range(n_segments):
        n = r.unsigned()
        if not 2 <= n < 2**63:
            raise ValueError(f"sample count {n}")
        n_full, tail = lay.partition(n - 1)
        if (len(lengths) + dim * (n_full + 1)) * (2 * (l + 1) - (l == 1)) > r.remaining_bits:
            raise TruncationError("more blocks than bits")
        n_samples.append(n)
        lengths += ([lay.b_s] * n_full + [tail]) * dim
    c_f = []
    for m in lengths:
        c = r.unsigned()
        if c > lay.budget(m) - 1:
            raise ValueError(f"{c} coefficients over the budget")
        c_f.append(c)
    # the signed stream
    outliers, prev = [], [0] * dim
    for _ in range(n_outliers):
        prev = [_fits(p + r.signed()) for p in prev]
        outliers.append(prev)
    corrections = [r.signeds(dim) for _ in range(n_corrections)]
    t0_index, prev_end = [], 0
    for n in n_samples:
        t0 = prev_end + r.signed()
        if t0_index and t0 <= t0_index[-1]:
            raise ValueError("segment does not start after the previous segment")
        prev_end = segment_end_index(t0, n, dt, eps_t)
        t0_index.append(t0)
    p0_q = [r.signeds(dim) for _ in n_samples]
    end_delta = []
    for n in n_samples:
        per_chain = lay.partition(n - 1)[0] + 1
        for _ in range(dim):
            run = 0
            for j in range(per_chain):  # the first block and the tail store their own
                run = r.signed() if j in (0, per_chain - 1) else _fits(run + r.signed())
                end_delta.append(run)
    coeffs = []
    for c in c_f:
        q = r.signeds(c)
        if q and not q[-1]:
            raise ValueError("block ends in a zero coefficient")
        coeffs += q
    return CompressedTrajectory(
        dim=dim, dt=dt, eps=eps, eps_t=eps_t, eps_p=eps_p, chunk_bits=l,
        segments=SegmentColumns(t0_index, np.array(p0_q, dtype=np.int64).reshape(-1, dim),
                                n_samples, BlockColumns(c_f, end_delta, coeffs)),
        outliers=EntryColumns(times[0], np.array(outliers, dtype=np.int64).reshape(-1, dim)),
        corrections=EntryColumns(times[1], np.array(corrections, dtype=np.int64).reshape(-1, dim)))


def _block_sizes(n_velocities: int, b_s: int) -> list[int]:
    """Velocities per block: full blocks of b_s, then a tail of 1..b_s."""
    sizes = [b_s] * ((n_velocities - 1) // b_s)
    return sizes + [n_velocities - sum(sizes)]


def _cosines(n: int) -> np.ndarray:
    # entry [i, k] = cos((2i+1) k pi / (2n)), the angle reduced mod 2 pi in
    # exact integer arithmetic before it is scaled
    phase = np.outer(2 * np.arange(n) + 1, np.arange(n)) % (4 * n)
    return np.cos(phase * (math.pi / (2.0 * n)))


def dct_forward_ref(values) -> np.ndarray:
    """C_0 = sqrt(1/n) sum(v); C_k = 2 sum_i v_i cos((2i+1) k pi / (2n))."""
    v = np.asarray(values, dtype=float)
    n = v.shape[-1]
    c = 2.0 * (v @ _cosines(n))
    c[..., 0] = v.sum(axis=-1) * math.sqrt(1.0 / n)
    return c


def dct_inverse_ref(coeffs) -> np.ndarray:
    """v_i = (1/n) sum_k C_k cos((2i+1) k pi / (2n))."""
    c = np.asarray(coeffs, dtype=float)
    return (c @ _cosines(c.shape[-1]).T) / c.shape[-1]


def tail_bound_ref(q_coeffs, k: int, m: int, layout) -> float:
    """The most that dropping AC coefficients k, k+1, ... (0-based, slot
    k + 1 on) of a block of m velocities moves any of its samples:
    sum over j >= k of |q_j| * 2 eps_f * reach_j / m, where reach_j is the
    largest running sum, in magnitude, of cosine column j + 1."""
    cos = _cosines(m)
    bound = 0.0
    for j in range(k, len(q_coeffs)):
        reach = max(abs(v) for v in np.cumsum(cos[:, j + 1]))
        bound += abs(int(q_coeffs[j])) * 2.0 * layout.eps_f * reach / m
    return bound


def block_compress_ref(samples, layout, tau: float) -> tuple[int, ...]:
    """Coefficients of one block of m+1 samples: the quantized spectrum up to
    its last nonzero coefficient whose tail bound (:func:`tail_bound_ref`)
    exceeds ``tau``, found by a loop over k from the last coefficient down."""
    s = np.asarray(samples, dtype=float)
    m = s.shape[0] - 1
    centered = np.diff(s) - (s[-1] - s[0]) / m
    spectrum = dct_forward_ref(centered)
    q = [int(v) for v in quantize_array(spectrum[1:layout.budget(m)], layout.eps_f)]
    for k in range(len(q), 0, -1):
        if q[k - 1] and tail_bound_ref(q, k - 1, m, layout) > tau:
            return tuple(q[:k])
    return ()


def block_decompress_ref(q_coeffs, m: int, start: float, end: float, layout) -> np.ndarray:
    """The m+1 samples of one block between its anchor values."""
    spectrum = np.zeros(m)
    spectrum[1:1 + len(q_coeffs)] = dequantize_array(q_coeffs, layout.eps_f)
    out = np.empty(m + 1)
    out[0] = start
    out[1:] = start + np.cumsum(dct_inverse_ref(spectrum) + (end - start) / m)
    out[-1] = end
    return out


def decode_rows_cumsum_ref(q: np.ndarray, m: int, starts, ends, layout) -> np.ndarray:
    """n blocks of m velocities, shape (n, m+1), from their dense quantized
    coefficients ``q``, an (n, K(m) - 1) matrix, and their anchor values, as
    the decoder computed them before its synthesis product: the centered
    velocities, plus the average velocity, summed from the start, with each
    float operation a fresh array."""
    if m < 1:
        raise ValueError("a block must contain at least one velocity")
    ac = cosine_basis(m, layout.budget(m))[:, 1:]
    centered = (dequantize_array(q, layout.eps_f) @ ac.T) / m
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    out = np.empty((q.shape[0], m + 1))
    out[:, 0] = starts
    out[:, 1:] = starts[:, None] + np.cumsum(centered + ((ends - starts) / m)[:, None], axis=1)
    out[:, -1] = ends
    return out


def decode_rows_synthesis_ref(q: np.ndarray, m: int, starts, ends, layout) -> np.ndarray:
    """The same blocks as one product, with each float operation a fresh
    array: each block's row of its dequantized coefficients, end step and
    start times the rows of the running sums of cosine columns 1..K(m)-1
    over m, the ramp (i + 1) / m and ones."""
    if m < 1:
        raise ValueError("a block must contain at least one velocity")
    ac = cosine_basis(m, layout.budget(m))[:, 1:]
    # C-contiguous, as the library lays both out: the product's last bits
    # depend on the layout of its operands
    synthesis = np.ascontiguousarray(np.vstack([
        np.cumsum(ac, axis=0).T / m, np.arange(1, m + 1)[None, :] / m, np.ones((1, m))]))
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    rows = np.ascontiguousarray(np.hstack([
        dequantize_array(q, layout.eps_f), (ends - starts)[:, None], starts[:, None]]))
    out = np.empty((q.shape[0], m + 1))
    out[:, 0] = starts
    out[:, 1:] = rows @ synthesis
    out[:, -1] = ends
    return out


def _decode_blocks_ref(decode_rows_ref):
    """:func:`~pilotc.blocks.decode_blocks` through ``decode_rows_ref``: the
    same batches, each scattered into ``out`` from an int64 coefficient
    matrix and a full (n, m+1) block array."""
    def decode_blocks(cols, starts, ends, plan, lay, out) -> None:
        order = plan.order
        c_f = cols.c_f[order]
        coeffs = cols.coeffs[flat_ranges(cols.offsets[order], c_f)]
        at = np.concatenate(([0], c_f.cumsum())).tolist()
        start, starts, ends = plan.start[order], starts[order], ends[order]
        for m, lo, hi in plan.batches:
            width = lay.budget(m) - 1
            q = np.zeros((hi - lo, width), dtype=np.int64)
            q[np.arange(width) < c_f[lo:hi, None]] = coeffs[at[lo]:at[hi]]
            rows = decode_rows_ref(q, m, starts[lo:hi], ends[lo:hi], lay)
            _windows(out, m)[start[lo:hi] + 1] = rows[:, 1:]
    return decode_blocks


decode_blocks_cumsum_ref = _decode_blocks_ref(decode_rows_cumsum_ref)
decode_blocks_synthesis_ref = _decode_blocks_ref(decode_rows_synthesis_ref)


def encode_series_ref(values, layout, eps_p: float, drop: float):
    """Per-block encoding of a uniform series: (p0_q, blocks[dim][block]),
    each block's dropped tail bounded by ``drop * layout.eps_out``."""
    sizes = _block_sizes(values.shape[0] - 1, layout.b_s)
    ends = np.cumsum(sizes)
    p0_q, per_dim = [], []
    for x in values.T:
        q0 = int(quantize_array(x[0], eps_p))
        p0 = float(dequantize_array(q0, eps_p))
        deltas = np.diff(quantize_array(x[ends] - p0, layout.eps_d), prepend=0)
        blks, pos = [], 0
        for m, delta in zip(sizes, deltas):
            q_coeffs = block_compress_ref(x[pos:pos + m + 1], layout, drop * layout.eps_out)
            blks.append(EncodedBlock(q_coeffs, int(delta)))
            pos += m
        p0_q.append(q0)
        per_dim.append(tuple(blks))
    return tuple(p0_q), tuple(per_dim)


def decode_series_ref(p0_q, blocks, n_samples: int, layout, eps_p: float) -> np.ndarray:
    """Per-block decoding of one segment's uniform samples, (n_samples, dim)."""
    sizes = _block_sizes(n_samples - 1, layout.b_s)
    values = np.empty((n_samples, len(p0_q)))
    for d, (q0, blks) in enumerate(zip(p0_q, blocks)):
        start = p0 = float(dequantize_array(q0, eps_p))
        values[0, d] = p0
        cum = pos = 0
        for blk, m in zip(blks, sizes):
            cum += blk.end_delta_q
            end = p0 + float(dequantize_array(cum, layout.eps_d))
            values[pos + 1:pos + m + 1, d] = block_decompress_ref(
                blk.q_coeffs, m, start, end, layout)[1:]
            start = end
            pos += m
    return values


def split_runs_ref(bounds, min_points: int = 3):
    """The runs between ``bounds`` one at a time: the (lo, hi) of each run
    of at least ``min_points`` points, a fragment, and the index of every
    point of the shorter runs, the outliers."""
    fragments, outliers = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo >= min_points:
            fragments.append((lo, hi))
        else:
            outliers.extend(range(lo, hi))
    return fragments, outliers


def choose_dt_ref(times, fragments, eps_t: float, default_dt: float) -> float:
    """Total fragment duration over total point count, fragment by fragment,
    or ``default_dt`` without a fragment, snapped to a multiple of eps_t."""
    if not fragments:
        return max(1, round_half_away(default_dt / eps_t)) * eps_t
    total_duration = sum(float(times[hi - 1] - times[lo]) for lo, hi in fragments)
    total_points = sum(hi - lo for lo, hi in fragments)
    avg = total_duration / total_points
    return max(1, round_half_away(avg / eps_t)) * eps_t


def resample_ref(times, points, dt: float) -> np.ndarray:
    """One fragment on its own grid t0 + j*dt, j = 0..ceil(duration/dt),
    interpolated over the fragment's points alone, (n_samples, dim)."""
    t0 = float(times[0])
    ratio = float(times[-1] - times[0]) / dt
    m = max(1, math.ceil(ratio - 1e-9 * max(1.0, ratio)))
    grid = t0 + dt * np.arange(m + 1)
    values = np.empty((m + 1, points.shape[1]))
    for d in range(points.shape[1]):
        values[:, d] = np.interp(grid, times, points[:, d])
    return values


class Span(NamedTuple):
    """One segment's uniform grid: sample j of ``values`` sits at t0 + j * dt."""

    t0: float
    n_samples: int
    values: np.ndarray


def spans(model, constants) -> list[Span]:
    """Every segment's grid, read through :meth:`Reconstructor.segment_grids`."""
    return [Span(float(times[0]), len(times), values)
            for times, values in Reconstructor(model, constants).segment_grids()]


def query_tolerance_ref(series, dt: float, eps_t: float) -> float:
    """How far outside its grid span a timestamp may lie and still belong to
    a segment: half a time step of the t0 quantization plus float dust that
    grows with the largest span end."""
    extreme = max((abs(v) for s in series for v in (s.t0, s.t0 + (s.n_samples - 1) * dt)),
                  default=0.0)
    return 0.5 * eps_t + 1e-9 * max(1.0, extreme)


def query_ref(model, constants, timestamps) -> np.ndarray:
    """Positions at finite ``timestamps``, one timestamp at a time.

    An outlier at the timestamp's exact time index wins.  Otherwise the
    timestamp belongs to the last segment starting at or before it, if it
    lies at most the tolerance (:func:`query_tolerance_ref`) after that
    segment's end, or else to the next segment, if it lies at most the
    tolerance before that one's start; so where one segment ends and the
    next one starts, the next one wins.  The position interpolates linearly
    between the two grid samples around the timestamp, clipped to the
    segment, and a correction at the exact time index is added.  The first
    timestamp, in input order, that belongs nowhere raises
    :class:`QueryRangeError`.  Segments must start in time order.
    """
    series = spans(model, constants)
    lay = Layout.derive(model.eps, model.eps_p, model.dim, constants)
    outliers, corrections = ({t: dequantize_array(v, step) for t, v in
                              zip(entries.t_index.tolist(), entries.values)}
                             for entries, step in ((model.outliers, lay.eps_out),
                                                   (model.corrections, lay.eps_d)))
    tol = query_tolerance_ref(series, model.dt, model.eps_t)
    out = np.empty((len(timestamps), model.dim))
    for i, t in enumerate(map(float, timestamps)):
        q = round_half_away(t / model.eps_t)
        if q in outliers:
            out[i] = outliers[q]
            continue
        k = sum(s.t0 <= t for s in series) - 1  # the last segment starting by t
        if k >= 0 and t <= series[k].t0 + (series[k].n_samples - 1) * model.dt + tol:
            s = series[k]
        elif k + 1 < len(series) and t >= series[k + 1].t0 - tol:
            s = series[k + 1]
        else:
            raise QueryRangeError(t)
        u = (t - s.t0) / model.dt
        j = 0 if u < 0 else s.n_samples - 2 if u >= s.n_samples - 2 else math.floor(u)
        frac = min(max(u - j, 0.0), 1.0)
        out[i] = [a * (1.0 - frac) + b * frac for a, b in zip(s.values[j], s.values[j + 1])]
        if q in corrections:
            out[i] += corrections[q]
    return out


def predicted_exceedance(eps: float, eps_f: float) -> float:
    """Probability that the worst point of a 2-D block exceeds eps:
    exp(-12 eps^2 / eps_f^2)."""
    if eps < 0 or eps_f <= 0:
        raise ValueError("eps must be non-negative and eps_f positive")
    return math.exp(-12.0 * eps * eps / (eps_f * eps_f))


_MEAN_ERROR_FACTOR = {2: 0.335, 3: 0.426}


def predicted_mean_error(eps: float, dim: int) -> float:
    """Expected mean SED at the default frequency precision eps_f = eps/0.6."""
    try:
        return _MEAN_ERROR_FACTOR[dim] * eps
    except KeyError:
        raise ValueError(f"mean-error prediction covers dim 2 and 3, not {dim}") from None
