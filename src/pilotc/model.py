"""Data model: raw trajectories, uniform series, and the compressed form.

``CompressedTrajectory`` mirrors the serialized container field for field,
so that a parse of a serialize compares equal.  Quantized indices are
stored in absolute form here, except a block's ``end_delta_q``, its step on
the segment's cumulative end-index chain; the wire format applies further
delta chains on top (see ``container``).  The records inside it (segments,
blocks, outlier and correction entries) are named tuples: they unpack, as
in ``t_index, values = entry``, and compare equal to plain tuples of the
same values.

A model that the library builds (``compress`` or ``parse``) keeps its
records as int64 columns, and reads them through views that make a record
only when one is read: its segments are a :class:`SegmentList` of their
start indices and values, whose blocks sit in one :class:`BlockColumns`
store together with the :class:`~pilotc.blocks.BlockPlan` that lays them
out, each segment's per-dimension block list being a :class:`BlockList`
view of that store; its outliers and its corrections are an
:class:`EntryList` each.  A model built by hand may hold tuples of records
instead; both forms compare equal.
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
        self.c_f = _frozen(c_f)
        self.end_delta = _frozen(end_delta)
        self.coeffs = _frozen(coeffs)
        self.offsets = np.zeros(self.c_f.size + 1, dtype=np.int64)
        np.cumsum(self.c_f, out=self.offsets[1:])
        self.offsets.flags.writeable = False


def _frozen(values) -> np.ndarray:
    a = np.asarray(values, dtype=np.int64)
    a.flags.writeable = False
    return a


class _View(Sequence):
    """Records read from columns: a view reads like the tuple of its
    records, makes each record when it is read, and compares and hashes
    equal to that tuple; two views of one kind compare by their columns."""

    __slots__ = ()

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        return self._record(range(len(self))[i])

    def __iter__(self):
        return map(self._record, range(len(self)))

    def __eq__(self, other):
        if type(other) is type(self):
            return all(map(np.array_equal, self._columns(), other._columns()))
        if isinstance(other, tuple):
            return len(self) == len(other) and tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class BlockList(_View):
    """One segment's blocks in one dimension, blocks ``lo:hi`` of a
    :class:`BlockColumns` store, as :class:`EncodedBlock` records."""

    __slots__ = ("store", "lo", "hi")

    def __init__(self, store: BlockColumns, lo: int, hi: int):
        self.store, self.lo, self.hi = store, lo, hi

    def __len__(self) -> int:
        return self.hi - self.lo

    def _record(self, i: int) -> EncodedBlock:
        s, i = self.store, self.lo + i
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


class SegmentList(_View):
    """A model's segments as :class:`SubTrajectorySegment` records: their
    start time indices ``t0_index``, a list of ints (a valid container can
    start a segment beyond int64), their start values ``p0_q``, int64 of
    shape (segments, dim), and their blocks in the :class:`BlockColumns`
    ``store``, whose plan holds their sample counts and lays out the
    :class:`BlockList` of each segment and dimension."""

    __slots__ = ("t0_index", "p0_q", "store")

    def __init__(self, t0_index: list, p0_q, store: BlockColumns):
        self.t0_index, self.p0_q, self.store = t0_index, _frozen(p0_q), store

    def __len__(self) -> int:
        return len(self.t0_index)

    def _record(self, i: int) -> SubTrajectorySegment:
        plan = self.store.plan
        k = slice(i * plan.dim, (i + 1) * plan.dim)
        return SubTrajectorySegment(
            self.t0_index[i], tuple(self.p0_q[i].tolist()), plan.n_samples[i],
            tuple(BlockList(self.store, lo, lo + n) for lo, n in
                  zip(plan.chain_start[k].tolist(), plan.per_chain[k].tolist())))

    def _columns(self):
        s = self.store
        return (self.t0_index, self.p0_q, s.plan.n_samples, s.plan.per_chain,
                s.c_f, s.end_delta, s.coeffs)


class EntryList(_View):
    """A model's outliers or corrections as ``kind`` records
    (:class:`OutlierEntry` or :class:`CorrectionEntry`): their time
    indices ``t_index``, int64, and their values ``values``, int64 of shape
    (entries, dim)."""

    __slots__ = ("kind", "t_index", "values")

    def __init__(self, kind: type, t_index, values):
        self.kind, self.t_index, self.values = kind, _frozen(t_index), _frozen(values)

    def __len__(self) -> int:
        return self.t_index.size

    def _record(self, i: int):
        return self.kind(int(self.t_index[i]), tuple(self.values[i].tolist()))

    def __iter__(self):
        return map(self.kind, self.t_index.tolist(), map(tuple, self.values.tolist()))

    def _columns(self):
        return self.t_index, self.values


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
    segments: Sequence[SubTrajectorySegment] = ()
    outliers: Sequence[OutlierEntry] = ()
    corrections: Sequence[CorrectionEntry] = ()

