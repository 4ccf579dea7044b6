"""Data model: raw trajectories, uniform series, and the compressed form.

``CompressedTrajectory`` mirrors the serialized container field for field,
using plain ints and tuples so that a parse of a serialize compares equal.
Quantized indices are stored in absolute form here, except a block's
``end_delta_q``, its step on the segment's cumulative end-index chain; the
wire format applies further delta chains on top (see ``container``).
The records inside it (segments, blocks, outlier and correction entries)
are named tuples: they unpack, as in ``t_index, values = entry``, and
compare equal to plain tuples of the same values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError


@dataclass
class TrajectoryRecord:
    """Ordered timestamped points in ``dim`` spatial dimensions."""

    times: np.ndarray   # shape (n,), seconds, strictly increasing
    points: np.ndarray  # shape (n, dim), position units

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim == 1:
            self.points = self.points.reshape(-1, 1)

    @property
    def n_points(self) -> int:
        return self.times.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def validate(self) -> "TrajectoryRecord":
        if self.times.ndim != 1:
            raise DataError("timestamps must form a one-dimensional sequence")
        if self.points.ndim != 2 or self.points.shape[0] != self.times.shape[0]:
            raise DataError("points must be an (n, dim) array matching the timestamps")
        if self.n_points < 1:
            raise DataError("trajectory must contain at least one point")
        if self.dim < 1:
            raise DataError("trajectory must have at least one spatial dimension")
        if not np.all(np.isfinite(self.times)) or not np.all(np.isfinite(self.points)):
            raise DataError("timestamps and coordinates must be finite")
        if self.n_points > 1 and not np.all(np.diff(self.times) > 0.0):
            raise DataError("timestamps must be strictly increasing")
        return self


@dataclass
class UniformSeries:
    """Per-fragment resampled signal on a fixed dt grid."""

    t0: float
    dt: float
    values: np.ndarray  # shape (n_samples, dim); sample j sits at t0 + j*dt

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    def grid_times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_samples)


class EncodedBlock(NamedTuple):
    """One block of one dimension: retained quantized AC coefficients plus
    the block-end delta on the cumulative endpoint index chain."""

    q_coeffs: tuple[int, ...]
    end_delta_q: int = 0

    @property
    def c_f(self) -> int:
        return len(self.q_coeffs)


class SubTrajectorySegment(NamedTuple):
    t0_index: int                                     # quantized with eps_t
    p0_q: tuple[int, ...]                             # per dim, step eps_p
    n_samples: int                                    # uniform sample count, >= 2
    blocks: tuple[tuple[EncodedBlock, ...], ...]      # [dim][block]


class OutlierEntry(NamedTuple):
    t_index: int               # quantized with eps_t
    coord_q: tuple[int, ...]   # absolute indices, step eps / sqrt(dim)


class CorrectionEntry(NamedTuple):
    t_index: int               # quantized with eps_t
    delta_q: tuple[int, ...]   # per-dim residual, step eps_p / sqrt(dim)


@dataclass(frozen=True)
class CompressedTrajectory:
    dim: int
    dt: float
    eps: float
    eps_t: float
    eps_p: float
    chunk_bits: int
    segments: tuple[SubTrajectorySegment, ...] = ()
    outliers: tuple[OutlierEntry, ...] = ()
    corrections: tuple[CorrectionEntry, ...] = ()

