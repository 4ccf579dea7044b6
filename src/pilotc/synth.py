"""Synthetic trajectory generator for tests and benchmarks.

Produces accelerate / cruise / brake motion with a slowly turning heading,
smooth velocity modulation, and optional GPS-style position jitter,
irregular sampling gaps, oversized gaps, and teleport jumps (the latter two
exercise fragment segmentation and outlier handling).
"""

from __future__ import annotations

import numpy as np

from .model import TrajectoryRecord

_CRUISE_SPEED = 15.0  # speed between the ramps, before modulation
_CLIMB_SCALE = 1.5  # sigma of the velocity noise in every dimension past the second
_BIG_GAP_SCALE = 120.0  # an oversized gap is this many ordinary ones
_TELEPORT_DISTANCE = 5000.0  # length of a teleport jump


def _smooth_noise(rng: np.random.Generator, n: int, sigma: float, window: int) -> np.ndarray:
    """Correlated noise: moving average scaled to keep variance sigma^2."""
    if sigma <= 0.0 or n == 0:
        return np.zeros(n)
    w = max(1, int(window))
    raw = rng.normal(0.0, sigma, n + w - 1)
    return np.convolve(raw, np.ones(w) / np.sqrt(w), mode="valid")


def synthetic_trajectory(
    n_points: int,
    dim: int = 2,
    dt: float = 1.0,
    seed: int | np.random.Generator = 0,
    speed_scale: float = 5.0,
    wobble_window: int = 8,
    turn_rate: float = 0.02,
    jitter: float = 0.0,
    gap_jitter: float = 0.0,
    big_gap_rate: float = 0.0,
    teleport_rate: float = 0.0,
) -> TrajectoryRecord:
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if not (dt > 0.0 and np.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    gaps = np.full(max(n_points - 1, 0), dt)
    if gap_jitter > 0.0 and gaps.size:
        gaps *= 1.0 + gap_jitter * rng.uniform(-0.5, 0.5, gaps.size)
    if big_gap_rate > 0.0 and gaps.size:
        gaps[rng.random(gaps.size) < big_gap_rate] *= _BIG_GAP_SCALE
    times = np.concatenate([[0.0], np.cumsum(gaps)])

    # accelerate over the first 15%, cruise, brake over the last 15%
    x = np.linspace(0.0, 1.0, n_points)
    ramp_in = np.clip(x / 0.15, 0.0, 1.0)
    ramp_out = np.clip((1.0 - x) / 0.15, 0.0, 1.0)
    profile = (3 * ramp_in**2 - 2 * ramp_in**3) * (3 * ramp_out**2 - 2 * ramp_out**3)
    speed = _CRUISE_SPEED * (0.2 + 0.8 * profile)
    speed = speed + _smooth_noise(rng, n_points, speed_scale, wobble_window)

    heading = rng.uniform(0.0, 2.0 * np.pi) + np.cumsum(
        rng.normal(0.0, turn_rate, n_points))
    velocity = np.zeros((n_points, dim))
    velocity[:, 0] = speed * np.cos(heading)
    if dim >= 2:
        velocity[:, 1] = speed * np.sin(heading)
    for d in range(2, dim):
        velocity[:, d] = _smooth_noise(rng, n_points, _CLIMB_SCALE, wobble_window)

    points = np.zeros((n_points, dim))
    points[0] = rng.uniform(0.0, 1000.0, dim)
    if n_points > 1:
        points[1:] = points[0] + np.cumsum(velocity[1:] * gaps[:, None], axis=0)

    if teleport_rate > 0.0 and n_points > 2:
        hits = np.flatnonzero(rng.random(n_points - 2) < teleport_rate) + 1
        for j in hits:
            jump = rng.normal(0.0, 1.0, dim)
            jump *= _TELEPORT_DISTANCE / np.linalg.norm(jump)
            points[j:] += jump

    if jitter > 0.0:
        points = points + rng.normal(0.0, jitter, points.shape)

    return TrajectoryRecord(times, points)
