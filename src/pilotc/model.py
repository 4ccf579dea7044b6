"""Data model: raw trajectories, uniform series, and the compressed form.

``CompressedTrajectory`` mirrors the serialized container field for field,
so that a parse of a serialize compares equal.  Quantized indices are
stored in absolute form here, except a block's ``end_delta_q``, its step on
the segment's cumulative end-index chain; the wire format applies further
delta chains on top (see ``container``).  The records inside it (segments,
blocks, outlier and correction entries) are named tuples: they unpack, as
in ``t_index, values = entry``, and compare equal to plain tuples of the
same values.

A model that the library builds (``compress`` or ``parse``) keeps every
block in one :class:`BlockColumns` store of int64 columns, together with
the :class:`~pilotc.blocks.BlockPlan` that lays them out, and each of its
segments' per-dimension block lists is a :class:`BlockList` view of it,
which makes an :class:`EncodedBlock` only when one is accessed.  A model
built by hand may hold tuples of blocks instead; both forms compare equal.
"""

from __future__ import annotations

from collections.abc import Sequence
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


class BlockColumns:
    """Every block of a model's segments as read-only int64 columns, in
    container order (segment, dimension, block): each block's coefficient
    count ``c_f`` and end delta, and the coefficients of all blocks one after
    the other, block i's at ``coeffs[offsets[i]:offsets[i + 1]]``.
    ``plan`` is the :class:`~pilotc.blocks.BlockPlan` that lays the blocks
    out, when they are known to meet the block rule under it, and ``None``
    otherwise."""

    __slots__ = ("c_f", "end_delta", "coeffs", "offsets", "plan")

    def __init__(self, c_f, end_delta, coeffs, plan=None):
        self.plan = plan
        self.c_f = np.asarray(c_f, dtype=np.int64)
        self.end_delta = np.asarray(end_delta, dtype=np.int64)
        self.coeffs = np.asarray(coeffs, dtype=np.int64)
        self.offsets = np.zeros(self.c_f.size + 1, dtype=np.int64)
        np.cumsum(self.c_f, out=self.offsets[1:])
        for a in (self.c_f, self.end_delta, self.coeffs, self.offsets):
            a.flags.writeable = False

    def segments(self, heads):
        """The segments whose heads, (t0_index, p0_q, n_samples) each, are
        ``heads`` and whose blocks are this store's, in the chains of its
        ``plan``."""
        dim = self.plan.dim
        bounds = [*self.plan.chain_start.tolist(), self.c_f.size]
        chains = [BlockList(self, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        return tuple(SubTrajectorySegment(t0, p0, n, tuple(chains[k:k + dim]))
                     for k, (t0, p0, n) in zip(range(0, len(chains), dim), heads))


class BlockList(Sequence):
    """One segment's blocks in one dimension, blocks ``lo:hi`` of a
    :class:`BlockColumns` store.  It reads like the tuple of their
    :class:`EncodedBlock` records, makes each record when it is accessed,
    and compares equal to that tuple in either order."""

    __slots__ = ("store", "lo", "hi")

    def __init__(self, store: BlockColumns, lo: int, hi: int):
        self.store, self.lo, self.hi = store, lo, hi

    def __len__(self) -> int:
        return self.hi - self.lo

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        i = range(self.lo, self.hi)[i]
        s = self.store
        return EncodedBlock(tuple(s.coeffs[s.offsets[i]:s.offsets[i + 1]].tolist()),
                            int(s.end_delta[i]))

    def __iter__(self):
        s, lo, hi = self.store, self.lo, self.hi
        bounds = (s.offsets[lo:hi + 1] - s.offsets[lo]).tolist()
        coeffs = s.coeffs[s.offsets[lo]:s.offsets[hi]].tolist()
        for a, b, delta in zip(bounds, bounds[1:], s.end_delta[lo:hi].tolist()):
            yield EncodedBlock(tuple(coeffs[a:b]), delta)

    def _columns(self):
        s, lo, hi = self.store, self.lo, self.hi
        return s.c_f[lo:hi], s.end_delta[lo:hi], s.coeffs[s.offsets[lo]:s.offsets[hi]]

    def __eq__(self, other):
        if isinstance(other, BlockList):
            return all(map(np.array_equal, self._columns(), other._columns()))
        if isinstance(other, tuple):
            return len(self) == len(other) and tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class SubTrajectorySegment(NamedTuple):
    t0_index: int                                     # quantized with eps_t
    p0_q: tuple[int, ...]                             # per dim, step eps_p
    n_samples: int                                    # uniform sample count, >= 2
    blocks: tuple[Sequence[EncodedBlock], ...]       # [dim][block]


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

