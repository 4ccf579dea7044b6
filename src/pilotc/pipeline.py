"""End-to-end compression.

Stages: split the raw trajectory into temporally continuous fragments,
pick a common sampling interval, resample each fragment onto a uniform
grid, block-code every segment and dimension together, in one batch per
block length, and finally validate the result against
the original points, storing quantized residuals for any point whose
reconstruction error exceeds the bound.  The returned model therefore
always decompresses to within ``eps`` at every original timestamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .blocks import BlockPlan, encode_blocks
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
        # a jump too large for float64 is infinite, and so always a split
        with np.errstate(over="ignore"):
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


def _encode_segments(samples, t0_indices: list[int],
                     params: CodecParams) -> tuple[SubTrajectorySegment, ...]:
    """Block-code every segment of a trajectory from its uniform samples,
    an iterable of (n_samples, dim) arrays that is read once.  The blocks of
    every segment and dimension go through the codec together, in one batch
    per block length (see :class:`~pilotc.blocks.BlockPlan`)."""
    values = list(samples)
    if not values:
        return ()
    n_samples = [v.shape[0] for v in values]
    dim = values[0].shape[1]
    x = np.concatenate([v.T for v in values], axis=None)
    del values  # so that the samples are held once while the blocks are coded
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
    blocks = list(map(EncodedBlock, encode_blocks(x, plan, lay), deltas.tolist()))
    bounds = [*plan.chain_start.tolist(), len(blocks)]
    chains = [tuple(blocks[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    return tuple(
        SubTrajectorySegment(t0_index=t0, p0_q=tuple(p0_q[i * dim:(i + 1) * dim].tolist()),
                             n_samples=n, blocks=tuple(chains[i * dim:(i + 1) * dim]))
        for i, (t0, n) in enumerate(zip(t0_indices, n_samples))
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
    idx = time_index_array(traj.times[mask], model.eps_t)
    rows = quantize_array(diffs[mask], params.layout(model.dim).eps_d)
    return replace(model, corrections=tuple(
        map(CorrectionEntry, idx.tolist(), map(tuple, rows.tolist()))))


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
    segments = _encode_segments((resample(f, dt).values for f in fragments), t0_indices, params)
    out_idx = time_index_array([t for t, _ in outlier_points], params.eps_t)
    out_q = quantize_array(np.reshape([p for _, p in outlier_points], (-1, traj.dim)),
                           params.layout(traj.dim).eps_out)
    outliers = tuple(map(OutlierEntry, out_idx.tolist(), map(tuple, out_q.tolist())))
    return CompressedTrajectory(
        dim=traj.dim, dt=dt, eps=params.eps, eps_t=params.eps_t,
        eps_p=params.eps_p, chunk_bits=params.chunk_bits,
        segments=segments, outliers=outliers,
    )
