"""Decompression: rebuild uniform series and answer timestamp queries.

Original timestamps are not stored in the container; the decompressor is a
query API.  A query timestamp resolves to an outlier entry when its
quantized time index matches one, otherwise to the sub-trajectory whose
grid span contains it (the later one winning ties), where the position is
linearly interpolated between the two bracketing uniform samples and any
matching correction entry is added on top.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .blocks import BlockPlan, decode_blocks
from .codec import dequantize_array, time_index_array
from .errors import QueryRangeError
from .model import CompressedTrajectory, UniformSeries
from .params import DEFAULT_PROFILE, Layout

_QUERY_CHUNK = 1 << 16  # timestamps per pass of Reconstructor.query


def decompress_uniform(model: CompressedTrajectory,
                       constants=DEFAULT_PROFILE) -> list[UniformSeries]:
    """Rebuild every sub-trajectory's uniform series.

    ``constants`` is any object carrying the dataset constants ``a, b, c, d``
    (a :class:`~pilotc.params.Profile` or :class:`~pilotc.params.CodecParams`),
    matching the ones used at compression time.  Every segment decodes at
    once: the blocks of all segments and dimensions go through the codec in
    one batch per block length (see :class:`~pilotc.blocks.BlockPlan`), into
    one (samples, dim) grid of which each series' values are a row slice.
    """
    if not model.segments:
        return []
    t0_index, p0_q, n_samples, blocks = zip(*model.segments)
    lay = Layout.derive(model.eps, model.eps_p, model.dim, constants)
    plan = BlockPlan(n_samples, model.dim, lay)
    chains = list(chain.from_iterable(blocks))
    if list(map(len, chains)) != plan.per_chain.tolist():
        raise ValueError("block counts do not match the segments' dimension and sample counts")
    coeffs, deltas = zip(*chain.from_iterable(chains))
    p0 = dequantize_array(list(chain.from_iterable(p0_q)), model.eps_p)
    # a chain's end indices are the running sum less its value before the
    # chain; float sums are exact while the sum stays below 2**53, and
    # unlike int64 they cannot wrap
    deltas = np.array(deltas, dtype=float)
    total = deltas.cumsum()
    first = plan.chain_start
    ends = p0.repeat(plan.per_chain) + dequantize_array(
        total - (total[first] - deltas[first]).repeat(plan.per_chain), lay.eps_d)
    starts = np.empty_like(ends)
    starts[1:] = ends[:-1]
    starts[first] = p0
    flat = np.empty(sum(n_samples) * model.dim)
    flat[plan.chain_row] = p0
    decode_blocks(coeffs, starts, ends, plan, lay, flat)
    grid = flat.reshape(model.dim, -1).T  # (samples, dim); each segment is a row slice
    return [UniformSeries(t0 * model.eps_t, model.dt, grid[row:row + n])
            for t0, n, row in zip(t0_index, n_samples, plan.chain_row[::model.dim].tolist())]


def _entry_table(entries, dim: int, step: float) -> tuple[np.ndarray, np.ndarray]:
    """An outlier or correction list as its time indices, int64, and its
    values dequantized with ``step``, shape (len(entries), dim)."""
    idx, values = zip(*entries) if entries else ((), ())
    return (np.array(idx, dtype=np.int64),
            dequantize_array(np.array(values, dtype=np.int64).reshape(len(idx), dim), step))


def _match(table: tuple[np.ndarray, np.ndarray], q_idx: np.ndarray):
    """Which query time indices equal a time index of the :func:`_entry_table`
    ``table``, as a mask, and the values of the matched entries."""
    idx, values = table
    if not idx.size:
        return np.zeros(q_idx.shape, dtype=bool), values
    pos = np.minimum(np.searchsorted(idx, q_idx), idx.size - 1)
    hit = idx[pos] == q_idx
    return hit, values[pos[hit]]


class Reconstructor:
    """Immutable query engine over one parsed container."""

    def __init__(self, model: CompressedTrajectory, constants=DEFAULT_PROFILE):
        self.model = model
        series = decompress_uniform(model, constants)
        self._starts = np.array([s.t0 for s in series])
        self._ends = np.array([s.t_end for s in series])
        counts = np.array([s.n_samples for s in series], dtype=np.int64)
        self._counts = counts
        self._offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]) if len(counts) else np.zeros(0, np.int64)
        self._values = (np.concatenate([s.values for s in series])
                        if series else np.zeros((0, model.dim)))
        lay = Layout.derive(model.eps, model.eps_p, model.dim, constants)
        self._outliers = _entry_table(model.outliers, model.dim, lay.eps_out)
        self._corrections = _entry_table(model.corrections, model.dim, lay.eps_d)
        extreme = float(np.abs(self._starts).max()) if len(self._starts) else 0.0
        extreme = max(extreme, float(np.abs(self._ends).max()) if len(self._ends) else 0.0)
        # covers t0 quantization (eps_t / 2) plus float dust on long time axes
        self._tol = 0.5 * model.eps_t + 1e-9 * max(1.0, extreme)

    def query(self, timestamps) -> np.ndarray:
        """Positions at the given timestamps, shape (len(timestamps), dim)."""
        ts = np.atleast_1d(np.asarray(timestamps, dtype=float))
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
        hit, found = _match(self._outliers, q_idx)
        out[hit] = found
        pending = ~hit
        if pending.any():
            sel = np.flatnonzero(pending)
            t = ts[sel]
            if not len(self._starts):
                raise QueryRangeError(float(t[0]))
            seg = np.searchsorted(self._starts, t, side="right") - 1
            seg_c = np.maximum(seg, 0)
            in_cur = (seg >= 0) & (t <= self._ends[seg_c] + self._tol)
            nxt = np.minimum(seg + 1, len(self._starts) - 1)
            near_next = (seg + 1 <= len(self._starts) - 1) & (t >= self._starts[nxt] - self._tol)
            use_next = ~in_cur & near_next
            resolved = in_cur | use_next
            if not resolved.all():
                raise QueryRangeError(float(t[np.argmin(resolved)]))
            seg = np.where(use_next, nxt, seg_c)

            # a tiny dt can put u beyond int64, or make it infinite, at a
            # query inside the tolerance; both clip to the segment's ends
            with np.errstate(over="ignore"):
                u = (t - self._starts[seg]) / self.model.dt
            j = np.clip(np.floor(u), 0, self._counts[seg] - 2).astype(np.int64)
            frac = np.clip(u - j, 0.0, 1.0)[:, None]
            base = self._offsets[seg] + j
            vals = self._values[base] * (1.0 - frac) + self._values[base + 1] * frac

            hit, found = _match(self._corrections, q_idx[sel])
            vals[hit] += found
            out[sel] = vals
