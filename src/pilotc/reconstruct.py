"""Decompression: rebuild uniform series and answer timestamp queries.

Original timestamps are not stored in the container; the decompressor is a
query API.  A query timestamp resolves to an outlier entry when its
quantized time index matches one, otherwise to the sub-trajectory whose
grid span contains it (the later one winning ties), where the position is
linearly interpolated between the two bracketing uniform samples and any
matching correction entry is added on top.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .blocks import BlockPlan, decode_blocks, flat_ranges
from .codec import dequantize_array, time_index_array
from .container import check_columns, model_layout
from .errors import CorruptionError, QueryRangeError
from .model import CompressedTrajectory, UniformSeries
from .params import DEFAULT_PROFILE, Layout

_QUERY_CHUNK = 1 << 16  # timestamps per pass of Reconstructor.query


def _checked(model: CompressedTrajectory, constants) -> tuple[Layout, BlockPlan]:
    """The layout of ``model`` under the dataset ``constants`` and the plan
    of its blocks, once :func:`~pilotc.container.model_layout` and
    :func:`~pilotc.container.check_columns` pass, with a broken rule, which
    a model built by hand can hold, raised as :class:`CorruptionError`."""
    try:
        lay = model_layout(model, constants)
        return lay, check_columns(model, lay)
    except ValueError as exc:
        raise CorruptionError(str(exc)) from exc


def _decode_grid(model: CompressedTrajectory, constants):
    """The layout of ``model``, then every segment's uniform samples, decoded
    in one batch per block length (see :class:`~pilotc.blocks.BlockPlan`),
    as one C-contiguous (dim, samples) grid; then the segments' t0 time
    indices and sample counts."""
    lay, plan = _checked(model, constants)
    segments = model.segments
    cols = segments.store
    p0 = dequantize_array(segments.p0_q.ravel(), model.eps_p)
    # a chain's end indices are the running sum less its value before the
    # chain; float sums are exact while the sum stays below 2**53, and
    # unlike int64 they cannot wrap
    deltas = cols.end_delta.astype(float)
    total = deltas.cumsum()
    first = plan.chain_start
    ends = p0.repeat(plan.per_chain) + dequantize_array(
        total - (total[first] - deltas[first]).repeat(plan.per_chain), lay.eps_d)
    starts = np.empty_like(ends)
    starts[1:] = ends[:-1]
    starts[first] = p0
    flat = np.empty(sum(segments.n_samples) * model.dim)
    flat[plan.chain_row] = p0
    decode_blocks(cols, starts, ends, plan, lay, flat)
    return lay, flat.reshape(model.dim, -1), segments.t0_index, segments.n_samples


def decompress_uniform(model: CompressedTrajectory,
                       constants=DEFAULT_PROFILE) -> list[UniformSeries]:
    """Rebuild every sub-trajectory's uniform series.

    ``constants`` is any object carrying the dataset constants ``a, b, c, d``
    (a :class:`~pilotc.params.Profile` or :class:`~pilotc.params.CodecParams`),
    matching the ones used at compression time.  Every segment decodes at
    once, into the one (dim, samples) grid that :class:`Reconstructor` keeps;
    each series' values are a transposed column slice of it.
    """
    _, grid, t0_index, n_samples = _decode_grid(model, constants)
    return [UniformSeries(t0 * model.eps_t, model.dt, grid[:, row:row + n].T)
            for t0, n, row in zip(t0_index, n_samples, accumulate(n_samples, initial=0))]


def _match(table: tuple[np.ndarray, np.ndarray], q_idx: np.ndarray, ordered: bool):
    """Where the query time indices equal a time index of the entry ``table``,
    its time indices and dequantized values, as positions in ``q_idx``, and
    the values of the matched entries.

    With ``ordered`` (``q_idx`` does not decrease), each entry within the
    range of ``q_idx`` finds its run of equal query indices by two
    searches; otherwise every query index is searched in the entries."""
    idx, values = table
    if not idx.size:
        return np.zeros(0, dtype=np.intp), values
    if ordered:
        lo, hi = np.searchsorted(idx, q_idx[0]), np.searchsorted(idx, q_idx[-1], side="right")
        first = np.searchsorted(q_idx, idx[lo:hi])
        runs = np.searchsorted(q_idx, idx[lo:hi], side="right") - first
        return flat_ranges(first, runs), values[lo:hi].repeat(runs, axis=0)
    pos = np.minimum(np.searchsorted(idx, q_idx), idx.size - 1)
    rows = (idx[pos] == q_idx).nonzero()[0]
    return rows, values[pos[rows]]


class Reconstructor:
    """Immutable query engine over one parsed container.  It keeps the one
    (dim, samples) grid that the decoder fills; a query interpolates a whole
    chunk before it applies corrections and outliers."""

    def __init__(self, model: CompressedTrajectory, constants=DEFAULT_PROFILE):
        self.model = model
        lay, self._grid, t0_index, n_samples = _decode_grid(model, constants)
        starts = [t0 * model.eps_t for t0 in t0_index]
        ends = [t0 + (n - 1) * model.dt for t0, n in zip(starts, n_samples)]
        # covers t0 quantization (eps_t / 2) plus float dust on long time axes
        tol = 0.5 * model.eps_t + 1e-9 * max([1.0, *map(abs, starts + ends)])
        self._starts = np.array(starts)
        # indexed by how many segments start at or before a time: the reach
        # of the segment before it and of the segment after it
        with np.errstate(over="ignore"):  # a reach beyond float64 is infinite
            self._reach_before = np.array([-np.inf, *ends]) + tol
            self._reach_after = np.array([*starts, np.inf]) - tol
        counts = np.array(n_samples, dtype=np.int64)
        self._last = counts - 2  # each segment's last interval
        self._offsets = counts.cumsum() - counts
        out, cor = model.outliers, model.corrections
        self._outliers = out.t_index, dequantize_array(out.values, lay.eps_out)
        self._corrections = cor.t_index, dequantize_array(cor.values, lay.eps_d)

    def query(self, timestamps) -> np.ndarray:
        """Positions at the given timestamps, shape (len(timestamps), dim)."""
        ts = np.atleast_1d(np.asarray(timestamps, dtype=float))
        if ts.ndim != 1:
            raise ValueError(f"timestamps must be a scalar or 1-D, got shape {ts.shape}")
        try:
            q_idx = time_index_array(ts, self.model.eps_t)
        except (OverflowError, ValueError):
            # indices of stored entries fit comfortably, so such a timestamp
            # cannot match anything
            bad = ts[~np.isfinite(ts)] if not np.all(np.isfinite(ts)) else ts
            raise QueryRangeError(float(bad[np.argmax(np.abs(bad))])) from None
        out = np.empty((ts.shape[0], self.model.dim))
        # long queries go in chunks, so every temporary stays cache-sized
        for lo in range(0, ts.shape[0], _QUERY_CHUNK):
            hi = lo + _QUERY_CHUNK
            self._fill(out[lo:hi], ts[lo:hi], q_idx[lo:hi])
        return out

    def _fill(self, out: np.ndarray, ts: np.ndarray, q_idx: np.ndarray) -> None:
        # queries at the original timestamps arrive sorted; in a sorted
        # chunk the few segment starts and entries are searched in the
        # chunk, rather than every timestamp in them
        ordered = bool((ts[1:] >= ts[:-1]).all())
        hit, found = _match(self._outliers, q_idx, ordered)
        # a time in reach of the last segment starting at or before it
        # belongs to that one, otherwise to the next one if in its reach;
        # k counts the segments starting at or before each time
        if ordered:
            lo, hi = np.searchsorted(self._starts, ts[[0, -1]], side="right")
            first = np.searchsorted(ts, self._starts[lo:hi])
            k = lo + np.bincount(first, minlength=ts.size).cumsum()
        else:
            k = np.searchsorted(self._starts, ts, side="right")
        in_cur = ts <= self._reach_before[k]
        missed = ~(in_cur | (ts >= self._reach_after[k]))
        missed[hit] = False
        if missed.any():
            raise QueryRangeError(float(ts[missed.argmax()]))
        if self._starts.size:
            # an outlier hit out of every segment's reach takes the last
            # segment here and is overwritten below
            seg = np.minimum(k - in_cur, self._starts.size - 1)
            # a tiny dt can put u beyond int64, or make it infinite, at a
            # query inside the tolerance; both clip to the segment's ends
            with np.errstate(over="ignore"):
                u = (ts - self._starts[seg]) / self.model.dt
            # truncating u clipped to [0, last] is its floor clipped alike
            j = np.clip(u, 0, self._last[seg]).astype(np.int64)
            frac = np.clip(u - j, 0.0, 1.0)
            base, keep = self._offsets[seg] + j, 1.0 - frac
            for d, row in enumerate(self._grid):
                out[:, d] = row[base] * keep + row[1:][base] * frac
            rows, residual = _match(self._corrections, q_idx, ordered)
            out[rows] += residual
        out[hit] = found
