"""Data model: raw trajectories and the compressed form.

``CompressedTrajectory`` mirrors the serialized container field for field,
so that a parse of a serialize compares equal.  It holds the header values
and three holders of read-only int64 columns: its segments are a
:class:`SegmentColumns` of their start indices, start values and sample
counts, whose blocks sit in one :class:`BlockColumns` store; its outliers
and its corrections are an :class:`EntryColumns` each.  Quantized indices
are stored in absolute form here, except a block's end delta, its step on
the segment's cumulative end-index chain; the wire format applies further
delta chains on top (see ``container``).  Two models are equal when their
header values and their columns are; a model is not hashable.

``compress`` and ``parse`` keep in each block store the
:class:`~pilotc.blocks.BlockPlan` that lays its blocks out, and have
checked the blocks under it; a store without a plan, as a model built by
hand has, is checked wherever the library reads it (see
``container.check_columns``).

Iterating a :class:`SegmentColumns` reads its segments out one at a time
as :class:`SubTrajectorySegment` records holding :class:`EncodedBlock`
tuples.  No library code reads them: the read-out serves only readers
written against records, and goes once they read the columns.
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
        t = self.times
        if not (np.isfinite(t).all() and np.isfinite(self.points).all()):
            raise DataError("timestamps and coordinates must be finite")
        if not (t[1:] > t[:-1]).all():
            raise DataError("timestamps must be strictly increasing")
        return self


class BlockColumns:
    """Every block of a model's segments as read-only int64 columns, in
    container order (segment, dimension, block): each block's coefficient
    count ``c_f`` and end delta, and the coefficients of all blocks one after
    the other, block i's at ``coeffs[offsets[i]:offsets[i + 1]]``.
    ``plan`` is the :class:`~pilotc.blocks.BlockPlan` that lays the blocks
    out, when they are known to meet the block rule under it, and ``None``
    otherwise; it takes no part in equality."""

    __slots__ = ("c_f", "end_delta", "coeffs", "offsets", "plan")

    def __init__(self, c_f, end_delta, coeffs, plan=None):
        self.plan = plan
        self.c_f = _frozen(c_f)
        self.end_delta = _frozen(end_delta)
        self.coeffs = _frozen(coeffs)
        self.offsets = np.zeros(self.c_f.size + 1, dtype=np.int64)
        self.c_f.cumsum(out=self.offsets[1:])
        self.offsets.flags.writeable = False

    def __eq__(self, other):
        if type(other) is not BlockColumns:
            return NotImplemented
        return (np.array_equal(self.c_f, other.c_f)
                and np.array_equal(self.end_delta, other.end_delta)
                and np.array_equal(self.coeffs, other.coeffs))


_INT64 = np.dtype(np.int64)


def _frozen(values) -> np.ndarray:
    """``values`` as a read-only int64 array, without a copy when they are
    one.  They must be integers that int64 holds: a value beyond int64
    raises ``OverflowError`` and a nonempty column of other numbers
    ``TypeError``."""
    a = np.asarray(values)
    if a.dtype != _INT64:
        if a.dtype.kind == "u" and a.size and a.max() >= 2**63:
            raise OverflowError("a column value beyond int64")
        if a.dtype.kind not in "biu" and a.size:
            # Python ints beyond int64 arrive as floats or objects; their cast raises
            np.asarray(values, dtype=np.int64)
            raise TypeError(f"columns hold integers, not {a.dtype}")
        a = a.astype(_INT64)
    a.flags.writeable = False
    return a


class EncodedBlock(NamedTuple):
    """Read-out record of one block of one dimension: its retained quantized
    AC coefficients and its end delta on the cumulative end-index chain."""

    q_coeffs: tuple[int, ...]
    end_delta_q: int = 0

    @property
    def c_f(self) -> int:
        return len(self.q_coeffs)


class SubTrajectorySegment(NamedTuple):
    """Read-out record of one segment."""

    t0_index: int                                 # quantized with eps_t
    p0_q: tuple[int, ...]                         # per dim, step eps_p
    n_samples: int                                # uniform sample count, >= 2
    blocks: tuple[tuple[EncodedBlock, ...], ...]  # [dim][block]


class SegmentColumns:
    """A model's segments: their start time indices ``t0_index``, a list of
    ints (a valid container can start a segment beyond int64), their start
    values ``p0_q``, int64 of shape (segments, dim), step eps_p, their
    uniform sample counts ``n_samples``, a list of ints, and their blocks in
    the :class:`BlockColumns` ``store``."""

    __slots__ = ("t0_index", "p0_q", "n_samples", "store")

    def __init__(self, t0_index, p0_q, n_samples, store: BlockColumns):
        self.t0_index, self.p0_q = list(t0_index), _frozen(p0_q)
        self.n_samples, self.store = list(n_samples), store

    def __len__(self) -> int:
        return len(self.t0_index)

    def __eq__(self, other):
        if type(other) is not SegmentColumns:
            return NotImplemented
        return (self.t0_index == other.t0_index and self.n_samples == other.n_samples
                and np.array_equal(self.p0_q, other.p0_q) and self.store == other.store)

    def __iter__(self):
        """The read-out: one :class:`SubTrajectorySegment` record per segment,
        made when it is reached, with a tuple of :class:`EncodedBlock`
        records per dimension, laid out by the store's plan."""
        s, plan = self.store, self.store.plan
        if plan is None:
            raise ValueError("only a block store that keeps its plan reads out as records")
        first = plan.chain_start.tolist() + [s.c_f.size]  # each chain's first block
        for i, (t0, p0, n) in enumerate(zip(self.t0_index, self.p0_q.tolist(), self.n_samples)):
            chains = first[i * plan.dim:(i + 1) * plan.dim + 1]
            lo, hi = chains[0], chains[-1]
            cut = (s.offsets[lo:hi + 1] - s.offsets[lo]).tolist()
            coeffs = s.coeffs[s.offsets[lo]:s.offsets[hi]].tolist()
            blocks = [EncodedBlock(tuple(coeffs[a:b]), d)
                      for a, b, d in zip(cut, cut[1:], s.end_delta[lo:hi].tolist())]
            yield SubTrajectorySegment(t0, tuple(p0), n, tuple(
                tuple(blocks[a - lo:b - lo]) for a, b in zip(chains, chains[1:])))


class EntryColumns:
    """A model's outliers or corrections: their time indices ``t_index``,
    int64, quantized with eps_t, and their values ``values``, int64 of shape
    (entries, dim): an outlier's absolute coordinates, step eps / sqrt(dim),
    or a correction's residual, step eps_p / sqrt(dim)."""

    __slots__ = ("t_index", "values")

    def __init__(self, t_index, values):
        self.t_index, self.values = _frozen(t_index), _frozen(values)

    def __len__(self) -> int:
        return self.t_index.size

    def __eq__(self, other):
        if type(other) is not EntryColumns:
            return NotImplemented
        return (np.array_equal(self.t_index, other.t_index)
                and np.array_equal(self.values, other.values))


@dataclass(frozen=True)
class CompressedTrajectory:
    dim: int
    dt: float
    eps: float
    eps_t: float
    eps_p: float
    chunk_bits: int
    segments: SegmentColumns
    outliers: EntryColumns
    corrections: EntryColumns

    __hash__ = None  # the columns are arrays
