"""End-to-end compression.

Stages: split the raw trajectory into temporally continuous fragments
(index ranges; shorter runs are stored verbatim as outliers), pick a common
sampling interval, resample every fragment into one (samples, dim) array,
block-code every segment and dimension together, in one batch per block
length, and finally validate the result against the original points,
storing quantized residuals for any point whose reconstruction error
exceeds the bound.  The returned model therefore always decompresses to
within ``eps`` at every original timestamp.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .blocks import BlockPlan, encode_blocks
from .codec import (
    dequantize_array,
    quantize_array,
    round_half_away,
    time_index_array,
)
from .errors import DataError
from .metrics import row_norms
from .model import (
    BlockColumns,
    CompressedTrajectory,
    EntryColumns,
    SegmentColumns,
    TrajectoryRecord,
)
from .params import CodecParams
from .reconstruct import Reconstructor

_MIN_FRAGMENT_POINTS = 3  # points of shorter runs are stored verbatim as outliers


def segment(traj: TrajectoryRecord, params: CodecParams, default_dt: float) -> np.ndarray:
    """Split at implausible jumps: a new run starts at point j when
    |p_j - p_{j-1}| > (t_j - t_{j-1}) * v_max, or when the time gap exceeds
    b_s times the run's running average gap (``default_dt`` standing in
    for the average while the run has a single point).

    Returns the run boundaries, int64, from 0 to the point count: run i is
    points ``b[i]:b[i + 1]``.  A run of at least ``_MIN_FRAGMENT_POINTS``
    points is a fragment; every other point is an outlier."""
    t = traj.times
    n = t.shape[0]
    b_s = params.layout(traj.dim).b_s
    boundaries = [0]
    if n > 1:
        gaps = t[1:] - t[:-1]
        p = traj.points
        # a jump too large for float64 is infinite, and so always a split
        with np.errstate(over="ignore"):
            dists = row_norms(p[1:] - p[:-1])
        speed_split = dists > gaps * params.v_max
        # the time condition needs at least b_s * min(gap); prefilter so the
        # sequential scan only visits points that could possibly split
        threshold = b_s * min(float(gaps.min()), default_dt)
        candidates = (speed_split | (gaps > threshold)).nonzero()[0] + 1
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
    return np.array([*boundaries, n], dtype=np.int64)


def choose_dt(times: np.ndarray, lo: np.ndarray, hi: np.ndarray, eps_t: float,
              default_dt: float) -> float:
    """Common sampling interval of the fragments ``times[lo[i]:hi[i]]``:
    their total duration over their total point count (``default_dt``
    without a fragment), snapped to a positive multiple of eps_t."""
    durations = (times[hi - 1] - times[lo]).tolist()  # summed in order, as bytes depend on it
    avg = sum(durations) / int((hi - lo).sum()) if durations else default_dt
    return max(1, round_half_away(avg / eps_t)) * eps_t


def resample(traj: TrajectoryRecord, lo: np.ndarray, hi: np.ndarray,
             dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Linear interpolation of each fragment, points ``lo[i]:hi[i]``, onto
    its grid t0 + j*dt, j = 0..ceil(duration/dt); grid points past the
    fragment's last time clamp to its position.

    Returns every fragment's samples, one fragment after the other, as an
    F-ordered (samples, dim) array, and the sample count per fragment."""
    if dt <= 0.0:
        raise ValueError(f"sampling interval must be positive, got {dt}")
    t0, t_end = traj.times[lo], traj.times[hi - 1]
    ratio = (t_end - t0) / dt
    n = np.maximum(1, np.ceil(ratio - 1e-9 * np.maximum(1.0, ratio))).astype(np.int64) + 1
    j = np.arange(n.sum()) - (n.cumsum() - n).repeat(n)  # index in the fragment
    # a clamped grid point sits on the fragment's last time, where np.interp
    # returns that point's position exactly
    grid = np.minimum(t0.repeat(n) + dt * j, t_end.repeat(n))
    values = np.empty((grid.size, traj.dim), order="F")
    for d in range(traj.dim):
        values[:, d] = np.interp(grid, traj.times, traj.points[:, d])
    return values, n


def _encode_segments(values: np.ndarray, n_samples, t0_indices: list[int],
                     params: CodecParams) -> SegmentColumns:
    """Block-code every segment of a trajectory from its uniform samples:
    ``values``, shape (samples, dim), holds each segment's ``n_samples``
    samples, one segment after the other.  The blocks of every segment and
    dimension go through the codec together, in one batch per block length
    (see :class:`~pilotc.blocks.BlockPlan`)."""
    dim = values.shape[1]
    x = values.T.ravel()  # dimension-major; a view when ``values`` is F-ordered
    lay = params.layout(dim)
    plan = BlockPlan(n_samples, dim, lay)
    p0_q = quantize_array(x[plan.chain_row], params.eps_p)
    p0 = dequantize_array(p0_q, params.eps_p).repeat(plan.per_chain)
    # block endpoints ride a cumulative index chain anchored at p0, so
    # every endpoint's reconstruction error stays within eps_d; each chain
    # restarts at its first block
    q_end = quantize_array(x[plan.start + plan.length] - p0, lay.eps_d)
    deltas = q_end.copy()
    deltas[1:] -= q_end[:-1]
    deltas[plan.chain_start] = q_end[plan.chain_start]
    c_f, coeffs = encode_blocks(x, plan, lay)
    cols = BlockColumns(c_f, deltas, coeffs, plan)  # the encoder keeps the block rule
    return SegmentColumns(t0_indices, p0_q.reshape(-1, dim), plan.n_samples, cols)


def validate_and_correct(traj: TrajectoryRecord, model: CompressedTrajectory,
                         params: CodecParams) -> CompressedTrajectory:
    """Query the model at every original timestamp and store a quantized
    residual for each point whose error exceeds eps.  Corrected points end
    up within eps_p, so the final model satisfies the eps bound everywhere."""
    approx = Reconstructor(model, params).query(traj.times)
    diffs = traj.points - approx
    mask = row_norms(diffs) > model.eps
    idx = time_index_array(traj.times[mask], model.eps_t)
    rows = quantize_array(diffs[mask], params.layout(model.dim).eps_d)
    return replace(model, corrections=EntryColumns(idx, rows))


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
    t = traj.times
    q_t = time_index_array(t, params.eps_t)
    if not (q_t[1:] > q_t[:-1]).all():
        raise DataError(
            f"time precision eps_t={params.eps_t} is coarser than the sampling; "
            "distinct points would collide, use a smaller --eps-t"
        )

    default_dt = _median(t[1:] - t[:-1]) if traj.n_points > 1 else params.eps_t
    bounds = segment(traj, params, default_dt)
    runs = bounds[1:] - bounds[:-1]
    kept = runs >= _MIN_FRAGMENT_POINTS
    lo, hi = bounds[:-1][kept], bounds[1:][kept]
    out = (~kept).repeat(runs).nonzero()[0]  # every point outside a fragment

    dt = choose_dt(t, lo, hi, params.eps_t, default_dt)
    values, n_samples = resample(traj, lo, hi, dt)
    segments = _encode_segments(values, n_samples, q_t[lo].tolist(), params)
    out_q = quantize_array(traj.points[out], params.layout(traj.dim).eps_out)
    return CompressedTrajectory(
        dim=traj.dim, dt=dt, eps=params.eps, eps_t=params.eps_t,
        eps_p=params.eps_p, chunk_bits=params.chunk_bits,
        segments=segments, outliers=EntryColumns(q_t[out], out_q),
        corrections=EntryColumns(q_t[:0], out_q[:0]),  # validation adds them
    )


def _median(x: np.ndarray) -> float:
    """``np.median`` of the nonempty finite array ``x``, to the bit: the
    mean of its middle value or two.  A sort is faster than the partition
    ``np.median`` makes, and, unlike a partition at one index, stays fast
    on gaps with many repeats, as a fixed sampling rate gives.  The mean of
    two values is their sum over 2, as ``np.mean`` computes it."""
    n = x.size
    s = np.sort(x)
    return float(s[n // 2]) if n % 2 else (float(s[n // 2 - 1]) + float(s[n // 2])) / 2
