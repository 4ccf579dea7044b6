"""End-to-end compression.

Stages: split the raw trajectory into temporally continuous fragments,
pick a common sampling interval, resample each fragment onto a uniform
grid, block-code every dimension, and finally validate the result against
the original points, storing quantized residuals for any point whose
reconstruction error exceeds the bound.  The returned model therefore
always decompresses to within ``eps`` at every original timestamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .blocks import encode_rows
from .codec import (
    dequantize_array,
    quantize_array,
    round_half_away,
    time_index_array,
)
from .errors import DataError
from .model import (
    CompressedTrajectory,
    CorrectionEntry,
    EncodedBlock,
    OutlierEntry,
    SubTrajectorySegment,
    TrajectoryRecord,
    UniformSeries,
)
from .params import CodecParams
from .reconstruct import Reconstructor


@dataclass
class Fragment:
    """A temporally continuous slice of the raw trajectory (views, not copies)."""

    times: np.ndarray
    points: np.ndarray

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    def __len__(self) -> int:
        return self.times.shape[0]


_MIN_FRAGMENT_POINTS = 3  # shorter fragments are stored verbatim as outliers


def segment(traj: TrajectoryRecord, params: CodecParams,
            default_dt: float) -> tuple[list[Fragment], list[tuple[float, np.ndarray]]]:
    """Split at implausible jumps: a new fragment starts at point j when
    |p_j - p_{j-1}| > (t_j - t_{j-1}) * v_max, or when the time gap exceeds
    b_s times the fragment's running average gap (``default_dt`` standing in
    for the average while the fragment has a single point)."""
    t = traj.times
    n = t.shape[0]
    if n == 0:
        return [], []
    b_s = params.layout(traj.dim).b_s
    boundaries = [0]
    if n > 1:
        gaps = np.diff(t)
        dists = np.linalg.norm(np.diff(traj.points, axis=0), axis=1)
        speed_split = dists > gaps * params.v_max
        # the time condition needs at least b_s * min(gap); prefilter so the
        # sequential scan only visits points that could possibly split
        threshold = b_s * min(float(gaps.min()), default_dt)
        candidates = np.flatnonzero(speed_split | (gaps > threshold)) + 1
        start = 0
        for j in candidates:
            count = j - start
            if speed_split[j - 1]:
                split = True
            else:
                avg = default_dt if count == 1 else (t[j] - t[start]) / count
                split = gaps[j - 1] > b_s * avg
            if split:
                boundaries.append(int(j))
                start = int(j)
    boundaries.append(n)

    fragments: list[Fragment] = []
    outliers: list[tuple[float, np.ndarray]] = []
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        if hi - lo >= _MIN_FRAGMENT_POINTS:
            fragments.append(Fragment(t[lo:hi], traj.points[lo:hi]))
        else:
            for i in range(lo, hi):
                outliers.append((float(t[i]), traj.points[i]))
    return fragments, outliers


def choose_dt(fragments: list[Fragment], eps_t: float) -> float:
    """Common sampling interval: total fragment duration over total point
    count, snapped to a positive multiple of eps_t."""
    if not fragments:
        raise ValueError("cannot choose a sampling interval without fragments")
    total_duration = sum(f.duration for f in fragments)
    total_points = sum(len(f) for f in fragments)
    avg = total_duration / total_points
    return max(1, round_half_away(avg / eps_t)) * eps_t


def resample(frag: Fragment, dt: float) -> UniformSeries:
    """Linear interpolation onto the grid t0 + j*dt, j = 0..ceil(duration/dt);
    grid points past the last original time clamp to its position."""
    if dt <= 0.0:
        raise ValueError(f"sampling interval must be positive, got {dt}")
    ratio = frag.duration / dt
    m = max(1, math.ceil(ratio - 1e-9 * max(1.0, ratio)))
    grid = frag.t0 + dt * np.arange(m + 1)
    dim = frag.points.shape[1]
    values = np.empty((m + 1, dim))
    for d in range(dim):
        values[:, d] = np.interp(grid, frag.times, frag.points[:, d])
    return UniformSeries(frag.t0, dt, values)


def _encode_series(series: UniformSeries, t0_index: int,
                   params: CodecParams) -> SubTrajectorySegment:
    lay = params.layout(series.dim)
    b_s = lay.b_s
    x = series.values
    n_full, _ = lay.partition(series.n_samples - 1)
    p0_q = quantize_array(x[0], params.eps_p)
    p0 = dequantize_array(p0_q, params.eps_p)
    # block endpoints ride a cumulative index chain anchored at p0, so
    # every endpoint's reconstruction error stays within eps_d
    ends = np.minimum(b_s * np.arange(1, n_full + 2), series.n_samples - 1)
    deltas = np.diff(quantize_array(x[ends] - p0, lay.eps_d), axis=0, prepend=0)
    # full blocks of every dimension in one batch, dimension-major
    rows = b_s * np.arange(n_full)[:, None] + np.arange(b_s + 1)
    full = encode_rows(x.T[:, rows].reshape(-1, b_s + 1), lay)
    tail = encode_rows(x[n_full * b_s:].T, lay)
    blocks = tuple(
        tuple(map(EncodedBlock, full[d * n_full:(d + 1) * n_full] + [tail[d]],
                  deltas[:, d].tolist()))
        for d in range(series.dim)
    )
    return SubTrajectorySegment(
        t0_index=t0_index,
        p0_q=tuple(p0_q.tolist()),
        n_samples=series.n_samples,
        blocks=blocks,
    )


def validate_and_correct(traj: TrajectoryRecord, model: CompressedTrajectory,
                         params: CodecParams) -> CompressedTrajectory:
    """Query the model at every original timestamp and store a quantized
    residual for each point whose error exceeds eps.  Corrected points end
    up within eps_p, so the final model satisfies the eps bound everywhere."""
    approx = Reconstructor(model, params).query(traj.times)
    diffs = traj.points - approx
    err = np.linalg.norm(diffs, axis=1)
    mask = err > model.eps
    if not mask.any():
        return replace(model, corrections=())
    idxs = time_index_array(traj.times[mask], model.eps_t)
    rows = quantize_array(diffs[mask], params.layout(model.dim).eps_d)
    entries = tuple(
        CorrectionEntry(int(i), tuple(int(v) for v in row))
        for i, row in zip(idxs, rows)
    )
    return replace(model, corrections=entries)


def compress(traj: TrajectoryRecord, params: CodecParams) -> CompressedTrajectory:
    traj.validate()
    if traj.times[0] < 0.0:
        raise DataError("timestamps must be non-negative; shift the time origin")
    # quantization raises OverflowError for a coordinate or a time beyond the
    # exact integer range of float64 at the chosen eps or eps_t
    try:
        return validate_and_correct(traj, _uncorrected_model(traj, params), params)
    except OverflowError as exc:
        raise DataError(f"coordinates or timestamps too large for eps={params.eps} "
                        f"and eps_t={params.eps_t}: {exc}") from exc


def _uncorrected_model(traj: TrajectoryRecord, params: CodecParams) -> CompressedTrajectory:
    q_t = time_index_array(traj.times, params.eps_t)
    if traj.n_points > 1 and not np.all(np.diff(q_t) > 0):
        raise DataError(
            f"time precision eps_t={params.eps_t} is coarser than the sampling; "
            "distinct points would collide, use a smaller --eps-t"
        )

    if traj.n_points > 1:
        default_dt = float(np.median(np.diff(traj.times)))
    else:
        default_dt = params.eps_t
    fragments, outlier_points = segment(traj, params, default_dt)

    if fragments:
        dt = choose_dt(fragments, params.eps_t)
    else:
        dt = max(1, round_half_away(default_dt / params.eps_t)) * params.eps_t

    t0_indices = time_index_array([f.t0 for f in fragments], params.eps_t).tolist()
    segments = tuple(
        _encode_series(resample(f, dt), t0, params) for f, t0 in zip(fragments, t0_indices)
    )
    out_idx = time_index_array([t for t, _ in outlier_points], params.eps_t)
    out_q = quantize_array(np.reshape([p for _, p in outlier_points], (-1, traj.dim)),
                           params.layout(traj.dim).eps_out)
    outliers = tuple(map(OutlierEntry, out_idx.tolist(), map(tuple, out_q.tolist())))
    return CompressedTrajectory(
        dim=traj.dim, dt=dt, eps=params.eps, eps_t=params.eps_t,
        eps_p=params.eps_p, chunk_bits=params.chunk_bits,
        segments=segments, outliers=outliers,
    )
