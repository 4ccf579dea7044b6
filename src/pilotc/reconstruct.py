"""Decompression: rebuild uniform series and answer timestamp queries.

Original timestamps are not stored in the container; the decompressor is a
query API.  A query timestamp resolves to an outlier entry when its
quantized time index matches one, otherwise to the sub-trajectory whose
grid span contains it (the later one winning ties), where the position is
linearly interpolated between the two bracketing uniform samples and any
matching correction entry is added on top.
"""

from __future__ import annotations

import numpy as np

from .blocks import decode_rows
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
    matching the ones used at compression time.
    """
    lay = Layout.derive(model.eps, model.eps_p, model.dim, constants)
    b_s = lay.b_s
    out = []
    for seg in model.segments:
        n_full, m_tail = lay.partition(seg.n_velocities)
        cut = n_full * b_s
        p0 = dequantize_array(seg.p0_q, model.eps_p)
        # float sums are exact below 2**53 and, unlike int64, cannot wrap
        end_deltas = np.array([[b.end_delta_q for b in per_dim] for per_dim in seg.blocks],
                              dtype=float).T
        ends = p0 + dequantize_array(np.cumsum(end_deltas, axis=0), lay.eps_d)
        starts = np.vstack([p0, ends[:-1]])
        # full blocks of every dimension in one batch, dimension-major
        full = decode_rows([b.q_coeffs for per_dim in seg.blocks for b in per_dim[:n_full]],
                           b_s, starts[:n_full].T.ravel(), ends[:n_full].T.ravel(), lay)
        tail = decode_rows([per_dim[-1].q_coeffs for per_dim in seg.blocks],
                           m_tail, starts[-1], ends[-1], lay)
        values = np.empty((seg.n_samples, model.dim))
        values[0] = p0
        values[1:cut + 1] = full[:, 1:].reshape(model.dim, cut).T
        values[cut + 1:] = tail[:, 1:].T
        out.append(UniformSeries(seg.t0_index * model.eps_t, model.dt, values))
    return out


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
        self._outlier_idx = np.array([e.t_index for e in model.outliers], dtype=np.int64)
        self._outlier_pos = (dequantize_array(
            np.array([e.coord_q for e in model.outliers], dtype=np.int64), lay.eps_out)
            if model.outliers else np.zeros((0, model.dim)))
        self._corr_idx = np.array([e.t_index for e in model.corrections], dtype=np.int64)
        self._corr_delta = (dequantize_array(
            np.array([e.delta_q for e in model.corrections], dtype=np.int64), lay.eps_d)
            if model.corrections else np.zeros((0, model.dim)))
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
        pending = np.ones(ts.shape[0], dtype=bool)
        if self._outlier_idx.size:
            pos = np.searchsorted(self._outlier_idx, q_idx)
            pos_c = np.minimum(pos, self._outlier_idx.size - 1)
            hit = self._outlier_idx[pos_c] == q_idx
            if hit.any():
                out[hit] = self._outlier_pos[pos_c[hit]]
                pending[hit] = False

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

            if self._corr_idx.size:
                qi = q_idx[sel]
                pos = np.searchsorted(self._corr_idx, qi)
                pos_c = np.minimum(pos, self._corr_idx.size - 1)
                hit = self._corr_idx[pos_c] == qi
                if hit.any():
                    vals[hit] += self._corr_delta[pos_c[hit]]
            out[sel] = vals
