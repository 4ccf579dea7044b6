"""Batched block coding.

Each row of a batch is one block of m+1 samples, m velocities, of one
spatial dimension.  Compression zero-centers the velocities against the
block's average velocity, transforms them, quantizes with step ``eps_f``
the first ``K(m) - 1`` AC coefficients (see
:meth:`~pilotc.params.Layout.budget`) and keeps them up to the last nonzero
one whose tail, it and every coefficient after it, can move a sample of
the block by more than tau = ``_DROP`` * eps / sqrt(dim); the rest would
move none by more than tau, and validation stores a correction for any
point that dropping them, with the other rounding, takes past eps.  The
DC coefficient is identically zero and never stored.  Only the K retained
cosine columns are ever multiplied, so one (m, K-1) product codes the
whole batch, and one running sum over its coefficients bounds every tail.

Decompression anchors every block on externally supplied start and end
values, so per-block errors never accumulate across a trajectory.  Every
step of it is linear: the inverse transform of the coefficients, the
average velocity (end - start) / m added, the running sum from the start.
So one (n, K+1) by (K+1, m) product decodes a chunk of n blocks: each row
holds a block's dequantized coefficients, its end step and its start, and
the synthesis matrix, cached per (m, K), holds the running sums of the
cosine columns over m, the ramp (i + 1) / m and ones (see
:func:`_synthesis`).  Its running-sum rows also give the encoder each
coefficient's reach (see :func:`_reach`).

A :class:`BlockPlan`, the one layout of a model's blocks, which the block
store keeps, lets :func:`encode_blocks` and :func:`decode_blocks` code
them all at once:
one batch per block length (every full block shares b_s, and each distinct
tail length gets its own), cut into chunks of at most ``_BATCH_SAMPLES``
samples so that the temporaries stay small whatever the input size.  The
plan lists those chunks once, when it is made, so the encoder and the
validation that decodes its blocks share one list; it computes the
blocks' coefficient limits only when a block rule check reads them (see
:class:`BlockPlan`).  Both coders work on int64 block columns in
block order: :func:`encode_blocks` returns
each block's coefficient count and all coefficients one block after the
other, gathered from each batch's quantized matrix, and
:func:`decode_blocks` scatters a :class:`~pilotc.model.BlockColumns` store
back into one row per block of each chunk's synthesis input, whose product
with the synthesis :func:`decode_rows` takes.
"""

from __future__ import annotations

import functools

import numpy as np

from .codec import dequantize_array, quantize_array
from .model import BlockColumns
from .params import Layout
from .transform import cosine_basis

_BATCH_SAMPLES = 1 << 15  # samples per chunk of a batch, to keep its temporaries small
_DROP = 0.5  # a block's dropped coefficients move a sample at most this times eps / sqrt(dim)


def encode_rows(samples, layout: Layout, tau: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Quantized AC coefficients of each row of ``samples``, shape (n, m+1):
    an int64 (n, K(m) - 1) matrix, and how many of each row's leading
    coefficients the row keeps: one past its last nonzero coefficient
    whose tail, that coefficient and all after it, can move the row's
    samples by more than ``tau`` (see :func:`_reach`).  At ``tau`` = 0 that
    is every nonzero one, so only trailing zeros are dropped."""
    s = np.asarray(samples, dtype=float)
    m = s.shape[1] - 1
    if m < 1:
        raise ValueError("a block must contain at least two samples")
    centered = s[:, 1:] - s[:, :-1]
    centered -= ((s[:, -1] - s[:, 0]) / m)[:, None]
    k = layout.budget(m)
    ac = cosine_basis(m, k)[:, 1:]
    q = quantize_array(2.0 * (centered @ ac), layout.eps_f)
    # each tail's bound in units of 2 eps_f, summed from the last coefficient
    # on: it never falls towards the first, and a zero adds exactly nothing,
    # so the tails over the threshold are a prefix that ends in a nonzero
    tails = (np.abs(q) * _reach(m, k))[:, ::-1].cumsum(axis=1)
    return q, np.add.reduce(tails > tau / (2.0 * layout.eps_f), axis=1)


@functools.lru_cache(maxsize=128)
def _reach(m: int, k: int) -> np.ndarray:
    """Read-only vector of the most that one unit of each AC coefficient
    1..k-1 of a block of m velocities moves any of its samples.  Coefficient
    j dequantizes to q_j * 2 eps_f and adds that times row j - 1 of the
    block's synthesis (see :func:`_synthesis`) to its samples; so dropping
    coefficients c, c + 1, ... moves a sample by at most
    2 eps_f * sum(|q_j| * reach_j for j >= c)."""
    reach = np.abs(_synthesis(m, k)[:k - 1]).max(axis=1, initial=0.0)
    reach.setflags(write=False)
    return reach


@functools.lru_cache(maxsize=128)
def _synthesis(m: int, k: int) -> np.ndarray:
    """Read-only (k + 1, m) matrix whose product with a block's row of its
    dequantized AC coefficients 1..k-1, its end step (end - start) and its
    start is the block's m samples after its first: rows 0..k-2 hold the
    running sums of cosine columns 1..k-1 over m, row k-1 the ramp
    (i + 1) / m and row k ones.  It is built from cosines that are not
    cached, so a decoder caches this one matrix per (m, k) and no basis."""
    syn = np.empty((k + 1, m))
    np.cumsum(cosine_basis.__wrapped__(m, k)[:, 1:], axis=0, out=syn[:k - 1].T)
    syn[:k - 1] /= m
    syn[k - 1] = np.arange(1, m + 1) / m
    syn[k] = 1.0
    syn.setflags(write=False)
    return syn


def decode_rows(a: np.ndarray, m: int, ends: np.ndarray) -> np.ndarray:
    """Each block's m samples after its first, shape (n, m), from ``a``, an
    (n, K(m) + 1) matrix whose rows hold each block's dequantized AC
    coefficients 1..K(m)-1, its end step (end - start) and its start, and
    the n blocks' end values ``ends``: one product with the synthesis (see
    :func:`_synthesis`), whose last sample, which float dust leaves near the
    end value, is then set to it."""
    if m < 1:
        raise ValueError("a block must contain at least one velocity")
    out = a @ _synthesis(m, a.shape[1] - 1)
    out[:, -1] = ends
    return out


def flat_ranges(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The indices of the ranges ``first[i]`` .. ``first[i] + counts[i] - 1``,
    one range after the other."""
    ends = counts.cumsum()
    return np.arange(ends[-1] if ends.size else 0) + (first - (ends - counts)).repeat(counts)


class BlockPlan:
    """Where every block of a trajectory's segments lies.

    The samples sit in one flat array, dimension-major: the transpose of a
    (samples, dim) array of every segment's samples, one after the other.
    One segment's samples in one dimension, a chain, are consecutive.
    Chains and blocks are numbered in container order: segment, dimension,
    block.  A chain holds its full blocks of b_s velocities from its first
    sample on, then the tail (see :meth:`~pilotc.params.Layout.partition`);
    adjacent blocks share their boundary sample.  Each block's ``limit`` is
    K(m) - 1 for its m velocities (see :meth:`~pilotc.params.Layout.budget`);
    it is computed each time it is read, once by each block rule check,
    which an encoder's plan never makes.  The plan's key is ``lay``,
    ``n_samples`` (one count per segment, maybe none) and ``dim``; a
    :class:`~pilotc.model.BlockColumns` store keeps the plan it was checked
    under, so encode and validation share one plan and one list of batches.
    """

    def __init__(self, n_samples, dim: int, lay: Layout):
        n_seg = np.array(n_samples, dtype=np.int64)
        self.lay, self.n_samples, self.dim = lay, n_seg.tolist(), dim
        n_full, tail = lay.partition(n_seg - 1)
        rows = n_seg.cumsum()
        # each chain's first sample: its segment's row in its dimension's run
        total = rows[-1] if rows.size else 0
        self.chain_row = np.add.outer(rows - n_seg, total * np.arange(dim)).ravel()
        self.per_chain = (n_full + 1).repeat(dim)  # blocks per chain
        ends = self.per_chain.cumsum()
        self.chain_start = ends - self.per_chain  # each chain's first block
        # per block: its first sample, b_s on from the one before in its
        # chain, and its velocity count
        n_blocks = ends[-1] if ends.size else 0
        self.start = lay.b_s * np.arange(n_blocks) + (
            self.chain_row - lay.b_s * self.chain_start).repeat(self.per_chain)
        self.length = np.empty(n_blocks, dtype=np.int64)
        self.length.fill(lay.b_s)
        self.length[ends - 1] = tail.repeat(dim)
        self._tails = ends - 1, tail  # each chain's last block, and each segment's tail
        self.order = self.length.argsort(kind="stable")
        self.batches = self._batches()

    @property
    def limit(self) -> np.ndarray:
        """Each block's coefficient limit K(m) - 1, int64, in block order."""
        lay, (last, tail) = self.lay, self._tails
        limit = np.empty(self.length.size, dtype=np.int64)
        limit.fill(lay.budget(lay.b_s) - 1)
        limit[last] = np.array([lay.budget(m) - 1 for m in tail.tolist()],
                               dtype=np.int64).repeat(self.dim)
        return limit

    def _batches(self) -> list[tuple[int, int, int]]:
        """(m, lo, hi) for chunks ``order[lo:hi]`` of the blocks of m
        velocities, at most ``_BATCH_SAMPLES`` samples (and at least one
        block) each; ``order`` lists the blocks by length, stably."""
        lengths = self.length[self.order]
        cuts = ((lengths[1:] != lengths[:-1]).nonzero()[0] + 1).tolist()
        first = [0, *cuts][:lengths.size]  # each length's first block; none without blocks
        out = []
        for lo, hi in zip(first, [*cuts, lengths.size]):
            m = int(lengths[lo])
            step = max(1, _BATCH_SAMPLES // (m + 1))
            out += [(m, i, min(i + step, hi)) for i in range(lo, hi, step)]
        return out


def encode_blocks(x: np.ndarray, plan: BlockPlan, lay: Layout) -> tuple[np.ndarray, np.ndarray]:
    """The coefficient count of every block of ``plan``, and all blocks'
    coefficients one after the other, both int64 and in block order; ``x``
    holds the samples in the plan's flat order.  Each block keeps its
    coefficients up to the last nonzero one whose tail can move one of its
    samples by more than tau = ``_DROP * lay.eps_out`` (see
    :func:`encode_rows`), so what it drops moves none by more than tau."""
    start = plan.start[plan.order]
    tau = _DROP * lay.eps_out
    none = np.zeros(0, dtype=np.int64)  # the columns of a plan without blocks
    counts, coeffs = [none], [none]
    for m, lo, hi in plan.batches:
        q, kept = encode_rows(_windows(x, m + 1)[start[lo:hi]], lay, tau)
        counts.append(kept)
        coeffs.append(q[np.arange(q.shape[1]) < kept[:, None]])
    kept = np.concatenate(counts)  # in ``order``, like ``coeffs``
    c_f, first = np.empty_like(kept), np.empty_like(kept)
    c_f[plan.order] = kept
    first[plan.order] = kept.cumsum() - kept
    return c_f, np.concatenate(coeffs)[flat_ranges(first, c_f)]


def decode_blocks(cols: BlockColumns, starts: np.ndarray, ends: np.ndarray, plan: BlockPlan,
                  lay: Layout, out: np.ndarray) -> None:
    """Write every block's samples after its first into ``out``, the flat
    samples, from the block columns ``cols``, whose blocks hold at most
    K(m) - 1 coefficients each, and the blocks' anchor values, in block
    order; each chunk of a batch is decoded by :func:`decode_rows`."""
    order = plan.order
    c_f = cols.c_f[order]
    coeffs = dequantize_array(cols.coeffs[flat_ranges(cols.offsets[order], c_f)], lay.eps_f)
    at = np.concatenate(([0], c_f.cumsum())).tolist()
    second, starts, ends = plan.start[order] + 1, starts[order], ends[order]
    steps = ends - starts
    for m, lo, hi in plan.batches:
        k = lay.budget(m)
        a = np.zeros((hi - lo, k + 1))  # coefficients 1..k-1, end step, start
        a[np.arange(k + 1) < c_f[lo:hi, None]] = coeffs[at[lo]:at[hi]]
        a[:, -2] = steps[lo:hi]
        a[:, -1] = starts[lo:hi]
        _windows(out, m)[second[lo:hi]] = decode_rows(a, m, ends[lo:hi])


def _windows(a: np.ndarray, m: int) -> np.ndarray:
    """View of the length-m windows of the contiguous 1-D array ``a``: row r
    is ``a[r:r + m]``, so indexing rows moves whole windows at a time."""
    return np.ndarray((a.size - m + 1, m), a.dtype, a, 0, (a.itemsize, a.itemsize))
