"""Decompression: :class:`Reconstructor`, the one decoder, rebuilds every
segment's uniform samples as one grid and answers timestamp queries from it.

Original timestamps are not stored in the container; the decompressor is a
query API.  A query timestamp resolves to an outlier entry when its
quantized time index matches one, otherwise to the sub-trajectory whose
grid span contains it (the later one winning ties), where the position is
linearly interpolated between the two bracketing uniform samples and any
matching correction entry is added on top.

A query is answered chunk by chunk, in time order, where the timestamps
that resolve to one segment form one run (see :meth:`Reconstructor._fill`);
a chunk out of order is sorted by a stable argsort, answered by the same
code and scattered back.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .blocks import decode_blocks, flat_ranges
from .codec import dequantize_array, time_index_array
from .container import check_columns, model_layout
from .errors import CorruptionError, QueryRangeError
from .model import CompressedTrajectory
from .params import DEFAULT_PROFILE, Layout

_QUERY_CHUNK = 1 << 16  # timestamps per pass of Reconstructor.query


def _decode_grid(model: CompressedTrajectory, constants) -> tuple[Layout, np.ndarray]:
    """The layout of ``model`` under the dataset ``constants`` and every
    segment's uniform samples as one C-contiguous (dim, samples) grid, decoded
    in one batch per block length (see :class:`~pilotc.blocks.BlockPlan`); a
    broken column rule, which a model built by hand can hold, is corruption."""
    try:
        lay = model_layout(model, constants)
        plan = check_columns(model, lay)
    except ValueError as exc:
        raise CorruptionError(str(exc)) from exc
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
    return lay, flat.reshape(model.dim, -1)


def _match(table: tuple[np.ndarray, np.ndarray], q_idx: np.ndarray):
    """Where the non-decreasing query time indices ``q_idx`` equal a time
    index of the entry ``table``, its time indices and dequantized values,
    as increasing positions in ``q_idx``, and the values of the matched
    entries.  Each entry within the range of ``q_idx`` finds its run of
    equal query indices by two searches."""
    idx, values = table
    if not idx.size:
        return np.zeros(0, dtype=np.intp), values
    lo, hi = idx.searchsorted(q_idx[0]), idx.searchsorted(q_idx[-1], "right")
    first = q_idx.searchsorted(idx[lo:hi])
    runs = q_idx.searchsorted(idx[lo:hi], "right") - first
    return flat_ranges(first, runs), values[lo:hi].repeat(runs, axis=0)


class Reconstructor:
    """Immutable query engine over one parsed container.  It keeps the one
    (dim, samples) grid that the decoder fills; a query interpolates a whole
    chunk before it applies corrections and outliers."""

    def __init__(self, model: CompressedTrajectory, constants=DEFAULT_PROFILE):
        self.model = model
        lay, self._grid = _decode_grid(model, constants)
        segments = model.segments
        starts = [t0 * model.eps_t for t0 in segments.t0_index]
        ends = [t0 + (n - 1) * model.dt for t0, n in zip(starts, segments.n_samples)]
        # covers t0 quantization (eps_t / 2) plus float dust on long time axes
        tol = 0.5 * model.eps_t + 1e-9 * max([1.0, *map(abs, starts + ends)])
        self._starts = np.array(starts)
        # row s bounds segment s's run in a sorted chunk (row S: no segment):
        # just past the reach of segment s - 1 after its end (the next float,
        # so that a search for the first time at or after it finds the first
        # one beyond the reach), the start of segment s's reach before its
        # start, and its start
        self._bounds = bounds = np.empty((len(starts) + 1, 3))
        past, near = bounds[:, 0], bounds[:, 1]
        past[0], past[1:] = -np.inf, ends
        near[:-1] = bounds[:-1, 2] = starts
        near[-1] = bounds[-1, 2] = np.inf
        with np.errstate(over="ignore"):  # a reach beyond float64 is infinite
            past += tol
            np.nextafter(past, np.inf, out=past)
            near -= tol
        counts = np.array(segments.n_samples, dtype=np.int64)
        self._last = (counts - 2).astype(float)  # each segment's last interval
        self._offsets = counts.cumsum() - counts
        out, cor = model.outliers, model.corrections
        self._outliers = out.t_index, dequantize_array(out.values, lay.eps_out)
        self._corrections = cor.t_index, dequantize_array(cor.values, lay.eps_d)

    def segment_grids(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Each segment's grid times and its (n_samples, dim) uniform
        samples, a view of the one grid, in segment order."""
        dt = self.model.dt
        for t0, row, n in zip(self._starts.tolist(), self._offsets.tolist(),
                              self.model.segments.n_samples):
            yield t0 + dt * np.arange(n), self._grid[:, row:row + n].T

    def query(self, timestamps) -> np.ndarray:
        """Positions at the given timestamps, shape (len(timestamps), dim)."""
        try:
            ts = np.atleast_1d(np.asarray(timestamps, dtype=float))
        except OverflowError:
            # only a number beyond float64 fails to convert; it lies out of
            # every segment's reach, on the side its sign says
            big = next(t for t in np.ravel(np.asarray(timestamps, dtype=object))
                       if abs(t) > sys.float_info.max)
            raise QueryRangeError(math.inf if big > 0 else -math.inf) from None
        if ts.ndim != 1:
            raise ValueError(f"timestamps must be a scalar or 1-D, got shape {ts.shape}")
        out = np.empty((ts.shape[0], self.model.dim))
        # long queries go in chunks, so every temporary stays cache-sized;
        # a chunk out of order is filled in order and scattered back
        for lo in range(0, ts.shape[0], _QUERY_CHUNK):
            chunk, part = ts[lo:lo + _QUERY_CHUNK], out[lo:lo + _QUERY_CHUNK]
            if (chunk[1:] >= chunk[:-1]).all():
                self._fill(part, chunk, None)
            else:
                order = chunk.argsort(kind="stable")
                ordered = np.empty_like(part)
                self._fill(ordered, chunk[order], order)
                part[order] = ordered
        return out

    def _fill(self, out: np.ndarray, ts: np.ndarray, order) -> None:
        """Positions at the non-decreasing timestamps ``ts``, into ``out``.

        The timestamps that resolve to one segment form a run of ``ts``: from
        where its reach before its start begins, but not before the previous
        segment's reach after its end has passed, to where its own reach has
        passed or the next segment starts.  One search in ``ts`` of those
        bounds of the segments whose reach the chunk touches places every
        run.  Between the runs lie the timestamps out of every reach, which
        only an outlier hit may resolve; ``order`` maps positions in ``ts``
        to query order (None: they are in query order), so that the error
        names the first miss in query order.  Each timestamp takes its
        segment's start, last interval and grid offset from one repeat per
        column over the runs.
        """
        try:
            q_idx = time_index_array(ts, self.model.eps_t)
        except (OverflowError, ValueError):
            # indices of stored entries fit comfortably, so such a timestamp
            # cannot match anything
            bad = ts[~np.isfinite(ts)] if not np.all(np.isfinite(ts)) else ts
            raise QueryRangeError(float(bad[np.argmax(np.abs(bad))])) from None
        n = ts.size
        hit, found = _match(self._outliers, q_idx)
        # a time belongs to the last segment starting at or before it if in
        # its reach, otherwise to the next one if in its reach; so the chunk
        # may resolve to the segments lo - 1 .. hi, where lo and hi count the
        # segments starting at or before its first and last time
        lo, hi = self._starts.searchsorted(ts[[0, -1]], "right").tolist()
        s0, s1 = max(lo - 1, 0), min(hi + 1, self._starts.size)
        past, near, begun = ts.searchsorted(self._bounds[s0:s1 + 1].ravel()).reshape(-1, 3).T
        # segment s's run is run_lo[s] .. run_hi[s] - 1; the row after the
        # window's last segment bounds no run, and the chunk ends there
        run_lo = np.minimum(np.maximum(near, past), begun)
        run_hi = np.minimum(past[1:], begun[1:])
        run_lo[-1] = n
        if (run_hi - run_lo[:-1]).sum() < n:  # some times lie between the runs
            gap = np.append(0, run_hi)
            missed = np.zeros(n, dtype=bool)
            missed[flat_ranges(gap, run_lo - gap)] = True
            missed[hit] = False
            if missed.any():
                at = missed.nonzero()[0]
                first = at[0] if order is None else at[order[at].argmin()]
                raise QueryRangeError(float(ts[first]))
        if self._starts.size:
            # a time between the runs, an outlier hit, takes the segment of
            # the run before it (the first one before the first run); its
            # position is overwritten below
            run_lo[0] = 0
            counts = run_lo[1:] - run_lo[:-1]
            u = self._starts[s0:s1].repeat(counts)
            last = self._last[s0:s1].repeat(counts)
            base = self._offsets[s0:s1].repeat(counts)
            # a tiny dt can put u beyond int64, or make it infinite, at a
            # query inside the tolerance; both clip to the segment's ends
            with np.errstate(over="ignore"):
                np.subtract(ts, u, out=u)
                u /= self.model.dt
            # truncating u clipped to [0, last] is its floor clipped alike
            j = np.minimum(np.maximum(u, 0.0), last, out=last).astype(np.int64)
            u -= j
            frac = np.minimum(np.maximum(u, 0.0, out=u), 1.0, out=u)
            keep = 1.0 - frac
            base += j
            # every axis at once: the samples at and after each base; the
            # grid is C-contiguous, so take copies only what it gathers
            lower = self._grid.take(base, axis=1)
            lower *= keep
            base += 1
            upper = self._grid.take(base, axis=1)
            upper *= frac
            np.add(lower, upper, out=out.T)
            rows, residual = _match(self._corrections, q_idx)
            out[rows] += residual
        out[hit] = found


class UniformSeries(NamedTuple):
    """One segment's samples, shape (n_samples, dim); sample j sits at t0 + j * dt."""

    t0: float
    dt: float
    values: np.ndarray


def decompress_uniform(model: CompressedTrajectory,
                       constants=DEFAULT_PROFILE) -> list[UniformSeries]:
    """Every segment's :meth:`Reconstructor.segment_grids` as a :class:`UniformSeries`."""
    return [UniformSeries(times[0], model.dt, values)
            for times, values in Reconstructor(model, constants).segment_grids()]
