"""Batched block coding.

Each row of a batch is one block of m+1 samples, m velocities, of one
spatial dimension.  Compression zero-centers the velocities against the
block's average velocity, transforms them, quantizes with step ``eps_f``,
keeps the first ``K(m) - 1`` AC coefficients (see
:meth:`~pilotc.params.Layout.budget`) and strips trailing zeros.  The DC coefficient is identically zero and
never stored.  Only the K retained cosine columns are ever multiplied, so
one (m, K-1) product codes the whole batch.

Decompression is the exact mirror and anchors every block on externally
supplied start and end values, so per-block errors never accumulate across
a trajectory.

A :class:`BlockPlan` lays out every block of a trajectory's segments, so
that :func:`encode_blocks` and :func:`decode_blocks` code them all at once:
one batch per block length (every full block shares b_s, and each distinct
tail length gets its own), cut into chunks of at most ``_BATCH_SAMPLES``
samples so that the temporaries stay small whatever the input size.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .codec import dequantize_array, quantize_array
from .errors import CorruptionError
from .params import Layout
from .transform import cosine_basis

_BATCH_SAMPLES = 1 << 15  # samples per chunk of a batch, to keep its temporaries small


def encode_rows(samples, layout: Layout) -> list[tuple[int, ...]]:
    """Quantized AC coefficients of each row of ``samples``, shape (n, m+1)."""
    s = np.asarray(samples, dtype=float)
    m = s.shape[1] - 1
    if m < 1:
        raise ValueError("a block must contain at least two samples")
    centered = np.diff(s, axis=1) - ((s[:, -1] - s[:, 0]) / m)[:, None]
    ac = cosine_basis(m, layout.budget(m))[:, 1:]
    q = quantize_array(2.0 * (centered @ ac), layout.eps_f)
    # one past each row's last nonzero coefficient: trailing zeros are dropped
    kept = ((q != 0) * np.arange(1, q.shape[1] + 1)).max(axis=1, initial=0)
    return [tuple(row[:k]) for row, k in zip(q.tolist(), kept.tolist())]


def decode_rows(coeffs, m: int, starts, ends, layout: Layout) -> np.ndarray:
    """Rebuild n blocks of m velocities, shape (n, m+1), from their stored
    coefficient tuples and their anchor values ``starts`` and ``ends``."""
    if m < 1:
        raise ValueError("a block must contain at least one velocity")
    width = layout.budget(m) - 1
    counts = np.fromiter(map(len, coeffs), np.int64, len(coeffs))
    if counts.size and counts.max() > width:
        raise CorruptionError(
            f"block holds {counts.max()} coefficients, the budget for {m} "
            f"velocities is {width}"
        )
    q = np.zeros((counts.size, width), dtype=np.int64)
    q[np.arange(width) < counts[:, None]] = np.fromiter(
        chain.from_iterable(coeffs), np.int64, int(counts.sum()))
    ac = cosine_basis(m, width + 1)[:, 1:]
    centered = (dequantize_array(q, layout.eps_f) @ ac.T) / m
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    out = np.empty((counts.size, m + 1))
    out[:, 0] = starts
    out[:, 1:] = starts[:, None] + np.cumsum(centered + ((ends - starts) / m)[:, None], axis=1)
    out[:, -1] = ends  # sum of centered velocities is zero up to float dust
    return out


class BlockPlan:
    """Where every block of a trajectory's segments lies.

    The samples sit in one flat array, dimension-major: the transpose of a
    (samples, dim) array of every segment's samples, one after the other.
    One segment's samples in one dimension, a chain, are consecutive.
    Chains and blocks are numbered in container order: segment, dimension,
    block.  A chain holds its full blocks of b_s velocities from its first
    sample on, then the tail (see :meth:`~pilotc.params.Layout.partition`);
    adjacent blocks share their boundary sample.
    """

    def __init__(self, n_samples, dim: int, lay: Layout):
        n_seg = np.array(n_samples, dtype=np.int64)
        n = n_seg.repeat(dim)  # samples per chain
        n_full, tail = lay.partition(n - 1)
        # each chain's first sample: its segment's row in its dimension's run
        self.chain_row = np.add.outer(n_seg.cumsum() - n_seg, n_seg.sum() * np.arange(dim)).ravel()
        self.per_chain = n_full + 1  # blocks per chain
        ends = self.per_chain.cumsum()
        self.chain_start = ends - self.per_chain  # each chain's first block
        k = np.arange(ends[-1]) - self.chain_start.repeat(self.per_chain)  # index in chain
        # per block: its first sample and its velocity count
        self.start = self.chain_row.repeat(self.per_chain) + lay.b_s * k
        self.length = np.full(k.size, lay.b_s, dtype=np.int64)
        self.length[ends - 1] = tail
        self.order = self.length.argsort(kind="stable")

    def batches(self):
        """Yield (m, lo, hi) for chunks ``order[lo:hi]`` of the blocks of m
        velocities, at most ``_BATCH_SAMPLES`` samples (and at least one
        block) each; ``order`` lists the blocks by length, stably."""
        lengths = self.length[self.order]
        cuts = ((lengths[1:] != lengths[:-1]).nonzero()[0] + 1).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, lengths.size]):
            m = int(lengths[lo])
            step = max(1, _BATCH_SAMPLES // (m + 1))
            for i in range(lo, hi, step):
                yield m, i, min(i + step, hi)


def encode_blocks(x: np.ndarray, plan: BlockPlan, lay: Layout) -> list[tuple[int, ...]]:
    """Coefficients of every block of ``plan`` in block order; ``x`` holds
    the samples in the plan's flat order."""
    start = plan.start[plan.order]
    coded = []
    for m, lo, hi in plan.batches():
        coded += encode_rows(_windows(x, m + 1)[start[lo:hi]], lay)
    at = np.empty_like(plan.order)  # each block's place in ``coded``
    at[plan.order] = np.arange(at.size)
    return list(map(coded.__getitem__, at.tolist()))


def decode_blocks(coeffs, starts: np.ndarray, ends: np.ndarray, plan: BlockPlan,
                  lay: Layout, out: np.ndarray) -> None:
    """Write every block's samples after its first into ``out``, the flat
    samples, from the blocks' coefficient tuples and anchor values, all in
    block order."""
    order = plan.order
    coeffs = list(map(coeffs.__getitem__, order.tolist()))
    start, starts, ends = plan.start[order], starts[order], ends[order]
    for m, lo, hi in plan.batches():
        rows = decode_rows(coeffs[lo:hi], m, starts[lo:hi], ends[lo:hi], lay)
        _windows(out, m)[start[lo:hi] + 1] = rows[:, 1:]


def _windows(a: np.ndarray, m: int) -> np.ndarray:
    """View of the length-m windows of the contiguous 1-D array ``a``: row r
    is ``a[r:r + m]``, so indexing rows moves whole windows at a time."""
    return np.ndarray((a.size - m + 1, m), a.dtype, a, 0, (a.itemsize, a.itemsize))
